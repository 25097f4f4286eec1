import imexks


def test_every_exported_name_resolves():
    missing = [name for name in imexks.__all__ if not hasattr(imexks, name)]
    assert missing == []
