"""Host-time benchmark of the exact simulator (see ``run.py``)."""
