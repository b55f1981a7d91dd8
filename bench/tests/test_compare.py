from bench.compare import compare, verdict

BOUND = 0.10


def test_within_bound_is_ok():
    assert verdict([100, 101, 99, 100], [105, 106, 104, 105], "lower", BOUND) == "ok"
    assert verdict([100, 101, 99, 100], [80, 81, 79, 80], "lower", BOUND) == "ok"


def test_median_past_bound_is_worse():
    assert verdict([100, 101, 99, 100], [115, 116, 114, 115], "lower", BOUND) == "worse"
    # For higher-is-better metrics the direction flips.
    assert verdict([100, 101, 99, 100], [85, 86, 84, 85], "higher", BOUND) == "worse"
    assert verdict([100, 101, 99, 100], [115, 116, 114, 115], "higher", BOUND) == "ok"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [70, 100, 130, 100]
    assert verdict(noisy, [101, 99, 100, 100], "lower", BOUND) == "unresolved"
    assert verdict([100, 100, 100, 100], noisy, "lower", BOUND) == "unresolved"


def test_wide_spread_is_ok_when_every_change_run_is_better():
    assert verdict([100, 140, 180, 220], [50, 60, 70, 90], "lower", BOUND) == "ok"
    assert verdict([100, 140, 180, 220], [50, 60, 70, 120], "lower", BOUND) == "unresolved"


def test_compare_makes_one_row_per_workload_and_metric():
    spec = {
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": BOUND}],
    }

    def run(workload, value, traced=False):
        return {"workload": workload, "traced": traced,
                "metrics": {"m": {"value": value, "unit": "ms"}}}

    a = [run("w1", 10.0), run("w1", 10.1), run("w2", 5.0), run("w2", 99.0, traced=True)]
    b = [run("w1", 12.0), run("w1", 12.1), run("w2", 5.1)]
    rows = compare(a, b, spec)
    assert [(r["workload"], r["verdict"]) for r in rows] == [("w1", "worse"), ("w2", "ok")]
    assert rows[1]["runs"] == (1, 1)  # the traced run is not compared
