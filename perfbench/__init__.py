"""End-to-end and per-layer benchmark for aspectra; see README.md here."""
