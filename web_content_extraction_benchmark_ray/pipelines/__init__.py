"""Pipeline layer: Dataset plans per SURVEY.md §2, one module per family."""
