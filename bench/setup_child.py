"""Set-up as a user pays it: a fresh interpreter imports vbraid and parses the
benchmark's word texts (a JSON list of [text, flavor, n]).  Timed from outside
by run.py; run from the checkout root."""

import json
import sys

with open(sys.argv[1]) as f:
    texts = json.load(f)
sys.path.insert(0, "src")
from vbraid import parse_word  # noqa: E402

for text, flavor, n in texts:
    parse_word(text, flavor, n)
