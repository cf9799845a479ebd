import hnfkit


def test_every_export_resolves():
    missing = [name for name in hnfkit.__all__ if not hasattr(hnfkit, name)]
    assert missing == []
