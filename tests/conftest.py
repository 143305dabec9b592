import pytest

from unihet import Dataset, IntervalOrder, StudentRecord, UniversityStats


@pytest.fixture
def four_system():
    """Four universities: two mid-range, two strong."""
    return UniversityStats("ABCD", [60.0, 65.0, 80.0, 90.0], [5.0, 5.0, 3.0, 5.0], [20] * 4)


@pytest.fixture
def four_system_dataset():
    """Student records that aggregate exactly to the four_system stats."""
    pairs = {"A": (55, 65), "B": (60, 70), "C": (77, 83), "D": (85, 95)}
    records = [
        StudentRecord(u, "state_funded", "competition", s)
        for u, scores in pairs.items()
        for s in scores
    ]
    return Dataset(tuple(records))


@pytest.fixture
def worked_pair():
    """Two 5-element orders at distance 0.1: observed vs its cleaned-up version."""
    labels = ["x1", "x2", "x3", "x4", "x5"]
    real = IntervalOrder(labels, [0.0, 0.5, 2.0, 3.0, 5.0], [1.0, 2.5, 3.0, 6.0, 7.0])
    ideal = IntervalOrder(labels, [0.0, 0.0, 2.0, 4.0, 4.0], [1.0, 1.0, 3.0, 6.0, 6.0])
    return real, ideal


@pytest.fixture
def gap_records():
    """Five universities exercising every exclusion rule.

    big_ok: 20 records, 2 gaps (10%), max observed score 95.
    small: 10 complete records.
    gappy: 20 records, 5 gaps (exactly 25%).
    tiny: 6 complete records.
    clean: 16 complete records.
    """
    records = []
    big_scores = [70, 72, 74, 76, 78, 80, 82, 84, 86, 88, 90, 92, 95, 60, 62, 64, 66, 68]
    records += [StudentRecord("big_ok", "state_funded", "competition", s) for s in big_scores]
    records.append(StudentRecord("big_ok", "state_funded", "olympiad", None))
    records.append(StudentRecord("big_ok", "state_funded", "benefit", None))
    records += [StudentRecord("small", "state_funded", "competition", 50 + i) for i in range(10)]
    records += [StudentRecord("gappy", "state_funded", "competition", 40 + i) for i in range(15)]
    records += [StudentRecord("gappy", "state_funded", "targeted", None) for _ in range(5)]
    records += [StudentRecord("tiny", "tuition_based", "competition", 55 + i) for i in range(6)]
    records += [StudentRecord("clean", "tuition_based", "competition", 60 + i) for i in range(16)]
    return records


@pytest.fixture
def two_tier_dataset():
    """Elite + middle tiers that fit a scheme, plus a noisy weak tail.

    Means: E1 85, E2 86, M1 65, M2 66, W1 52, W2 55.  The weak universities
    have spreads so large that their intervals overlap the middle tier.
    """
    score_pairs = {
        "E1": (84, 86),
        "E2": (85, 87),
        "M1": (64, 66),
        "M2": (65, 67),
        "W1": (32, 72),
        "W2": (27, 83),
    }
    records = [
        StudentRecord(u, "state_funded", "competition", s)
        for u, scores in score_pairs.items()
        for s in scores
    ]
    return Dataset(tuple(records))
