from pathlib import Path

import pytest
from hypothesis import strategies as st

from medlang.corpus import extract_units, parse_case_metadata, parse_transcript
from medlang.measure import CausalRecord, CodedRecords, Domains, encode_records, infer_domains

FIXTURE_DIR = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def paired_transcript_path() -> Path:
    return FIXTURE_DIR / "paired_cases.ndjson"


@pytest.fixture(scope="session")
def paired_meta_path() -> Path:
    return FIXTURE_DIR / "paired_cases_meta.ndjson"


@pytest.fixture(scope="session")
def paired_utterances(paired_transcript_path):
    with open(paired_transcript_path, "rb") as fh:
        return parse_transcript(fh)


@pytest.fixture(scope="session")
def paired_meta(paired_meta_path):
    with open(paired_meta_path, "rb") as fh:
        return parse_case_metadata(fh)


@pytest.fixture
def paired_units(paired_utterances, paired_meta):
    return extract_units(paired_utterances, paired_meta)


@pytest.fixture
def paired_case_utterances(paired_utterances):
    by_case = {}
    for utt in paired_utterances:
        by_case.setdefault(utt.case_id, []).append(utt)
    return by_case


def near_lines(line: bytes):
    """Byte strings near ``line``: itself, with one byte replaced, or arbitrary bytes."""
    return st.one_of(
        st.just(line),
        st.builds(lambda i, b: line[:i] + bytes([b]) + line[i + 1:],
                  st.integers(0, len(line) - 1), st.integers(0, 255)),
        st.binary(max_size=40),
    )


def simple_domains(n_x_levels: int = 2, mediators=(("hedging", 2),)) -> Domains:
    return Domains(
        confounders=(("x0", tuple(str(i) for i in range(n_x_levels))),),
        mediators=tuple(mediators),
    )


def records_from_arrays(t, x0, m, y, fold, mediator="hedging", domains=None) -> CodedRecords:
    """Code records from parallel level sequences; x levels are strings.

    The domains are inferred from the levels unless given.
    """
    rows = [
        CausalRecord(
            unit_id=f"u{i:06d}",
            t=int(ti),
            x={"x0": str(int(xi))},
            m={mediator: int(mi)},
            y=int(yi),
            fold=int(fi),
        )
        for i, (ti, xi, mi, yi, fi) in enumerate(zip(t, x0, m, y, fold))
    ]
    if domains is None:
        domains = infer_domains({"x0": [r.x["x0"] for r in rows]},
                                {mediator: [r.m[mediator] for r in rows]})
    return encode_records(rows, domains)
