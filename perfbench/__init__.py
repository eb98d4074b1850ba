"""Outside-in benchmark of the RBCD simulator (see ``README.md``)."""
