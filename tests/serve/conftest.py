"""Shared helpers for the serving tests."""

import hashlib
import json


def serving_digest(result):
    """sha256 of a serving run's canonical JSON report."""
    return hashlib.sha256(
        json.dumps(result.to_json(), sort_keys=True).encode("utf-8")
    ).hexdigest()
