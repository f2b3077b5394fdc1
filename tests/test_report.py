import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from virab.report import Failure, Report

# text the encoder must escape (quotes, backslashes, control characters,
# non-ASCII), and the template's own text, which a report may carry in
# its params, residues and data without being taken for its failures list
_TRICKY = ['"failures": []', '\n  "failures": []', ',\n    {', '"', "\\",
           "\x00\x1f\t\r\n", "é∂ł𝔰", " ", "%s", ""]
_texts = st.one_of(st.text(max_size=12), st.sampled_from(_TRICKY))
_data = st.dictionaries(_texts, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8), max_size=4)
_reports = st.builds(
    Report,
    suite=_texts,
    params=st.dictionaries(_texts, _texts, max_size=4),
    checks=st.integers(0, 10 ** 6),
    failures=st.lists(st.builds(
        Failure, _texts,
        st.lists(st.one_of(st.integers(), _texts), max_size=3).map(tuple),
        _texts), max_size=8),
    elapsed=st.floats(),
    data=_data)


@pytest.mark.oracle
@given(_reports)
# a key "failures" with an empty list inside data, and the template's own
# text in params, with no failures (json.dumps writes it all) and with one
@example(Report("s", {"failures": '\n  "failures": []'},
                data={"failures": [], "x": {"failures": []}}))
@example(Report("s", {"failures": '\n  "failures": []'},
                failures=[Failure("c", (), '"failures": []')],
                data={"failures": [], "x": {"failures": []}}))
def test_the_json_template_agrees_with_json_dumps(report):
    # the failures list comes from a template, the rest from json.dumps:
    # together they are json.dumps(indent=2)'s bytes, and the document
    # reads back to a report that writes them again
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2)
    assert Report.from_dict(json.loads(text)).to_json() == text
    assert Report.from_dict(report.to_dict()).to_json() == text

