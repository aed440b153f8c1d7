"""System benchmark: fleet ingest and campaign workloads (see README.md)."""
