"""bipbc's benchmark: four workloads, output checks and a traced per-layer run."""
