import json

from ucompare.report import canonical_json


def test_strings_with_control_characters_round_trip():
    text = "a\tb\n\"\\"
    assert canonical_json(text) == '"a\\tb\\n\\"\\\\"'
    assert canonical_json("café – x/y") == '"café – x/y"'
    value = {text: [text, "café"]}
    assert json.loads(canonical_json(value)) == value
