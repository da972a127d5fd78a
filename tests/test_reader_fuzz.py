"""Fuzz the four text readers: each returns or raises a documented error."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momext.errors import FormatError, NotHermitian, ParseError
from momext.extraction import read_measure
from momext.hierarchy import parse_problem
from momext.interp import read_model
from momext.moment import read_sequence

# headers that get a reader past its first checks, so the fuzz reaches the
# entry lines
HEADERS = [
    "",
    "momseq 1\nmode paired\nn 1\nd 1\n",
    "momseq 1\nmode hankel\nn 2\nd 1\n",
    "measure 1\nmode conjugate\nn 1\n",
    "measure 1\nmode transpose\nn 2\n",
    "expsum 1\nn 1\n",
    "pop 1\nn 1\nvars complex\nminimize\n",
    "pop 1\nn 2\nvars real\nminimize\nterm 0,0 0,0 1 0\nconstraint ineq\n",
]
WORDS = ["momseq", "measure", "expsum", "pop", "mode", "paired", "hankel",
         "conjugate", "transpose", "n", "d", "y", "atom", "w", "term", "vars",
         "complex", "real", "minimize", "constraint", "eq", "ineq", "#"]
NUMBER = st.one_of(
    st.integers(-3, 5).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-0", "nan", "-inf", "0x10", "1_0", "\u0661", "99999999999"]),
)
INDEX = st.lists(st.integers(-1, 3).map(str) | st.just(""), max_size=4).map(",".join)
TOKEN = st.one_of(st.sampled_from(WORDS), NUMBER, INDEX, st.text(max_size=5))


def line(*parts):
    return st.tuples(*parts).map(" ".join)


# entry lines of each format with fuzzed fields, header lines with a fuzzed
# value, and free-form token soup
LINES = st.one_of(
    line(st.just("y"), INDEX, INDEX, NUMBER, NUMBER),
    line(st.just("y"), INDEX, NUMBER, NUMBER),
    line(st.just("term"), INDEX, INDEX, NUMBER, NUMBER),
    line(st.just("term"), st.lists(NUMBER, max_size=6).map(" ".join)),
    line(st.just("atom"), st.lists(NUMBER, max_size=4).map(" ".join), st.just("w"),
         st.lists(NUMBER, max_size=3).map(" ".join)),
    line(st.sampled_from(WORDS), TOKEN),
    st.lists(TOKEN, max_size=6).map(" ".join),
)
TEXTS = st.builds(lambda head, body: head + "\n".join(body),
                  st.sampled_from(HEADERS), st.lists(LINES, max_size=8))
READERS = [
    (read_sequence, (ParseError, FormatError)),
    (read_measure, (ParseError, FormatError)),
    (read_model, (ParseError, FormatError)),
    # a well-formed objective or inequality that is not real-valued is
    # rejected as NotHermitian (exit 18), as documented
    (parse_problem, (ParseError, FormatError, NotHermitian)),
]


# generating a text costs far more than reading it, so every reader reads
# every text
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS)
def test_every_reader_returns_or_rejects(text):
    for reader, allowed in READERS:
        try:
            reader(io.StringIO(text))
        except allowed:
            pass
