import json

from golden_manifest import MANIFEST, changed, collect


def test_every_fixture_artifact_matches_the_golden_manifest():
    """What the CLI prints, exits with and writes for each fixture, and the
    CSV each bench suite prints at seed 0, is byte for byte what
    tests/golden/manifest.json records."""
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    moved = changed(expected, collect())
    assert moved == [], f"artifacts changed: {', '.join(moved)}"
