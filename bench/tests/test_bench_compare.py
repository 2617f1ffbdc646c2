from compare import compare, spread, verdict

SPEC = {"end_to_end": [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "items_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
]}


def runs(**series):
    """One fabricated run per index of the given per-metric series."""
    count = len(next(iter(series.values())))
    return [{"workloads": {"w": {
        "end_to_end": {m: {"value": v[i], "unit": "x"}
                       for m, v in series.items()},
        "per_layer": {"tune.search_s": {"value": 1.0, "unit": "s"}},
    }}} for i in range(count)]


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == 0.2


def test_within_bound_is_ok_and_beyond_is_regressed():
    assert verdict(STEADY, [v * 1.05 for v in STEADY], 0.1, "lower") == "ok"
    assert verdict(STEADY, [v * 1.2 for v in STEADY], 0.1,
                   "lower") == "regressed"
    # "higher is better" flips the direction of a regression.
    assert verdict(STEADY, [v * 0.8 for v in STEADY], 0.1,
                   "higher") == "regressed"
    assert verdict(STEADY, [v * 1.2 for v in STEADY], 0.1, "higher") == "ok"


def test_noisy_sides_are_unresolved_unless_every_run_wins():
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(STEADY, noisy, 0.1, "lower") == "unresolved"
    assert verdict(noisy, STEADY, 0.1, "lower") == "unresolved"
    assert verdict(noisy, [10.0, 20.0, 30.0], 0.1, "lower") == "better"


def test_one_side_only_judges_the_spread():
    assert verdict(STEADY, None, 0.1, "lower") == "steady"
    assert verdict([60.0, 100.0, 140.0], None, 0.1, "lower") == "unresolved"


def test_compare_rows_per_workload_and_metric():
    base = runs(op_p50_ms=STEADY, items_per_s=STEADY)
    head = runs(op_p50_ms=[v * 1.3 for v in STEADY], items_per_s=STEADY)
    rows = {(r["kind"], r["metric"]): r for r in compare(base, head, SPEC)}
    assert rows[("end_to_end", "op_p50_ms")]["verdict"] == "regressed"
    assert rows[("end_to_end", "items_per_s")]["verdict"] == "ok"
    assert rows[("end_to_end", "op_p50_ms")]["base"][1] == 100.0
    layer = rows[("per_layer", "tune.search_s")]
    assert layer["verdict"] == "" and layer["head"] == (1.0, 1.0, 1.0)


def test_a_metric_missing_from_head_is_unresolved():
    base = runs(op_p50_ms=STEADY)
    head = runs(items_per_s=STEADY)
    rows = compare(base, head, SPEC)
    assert [r["verdict"] for r in rows if r["kind"] == "end_to_end"] == [
        "unresolved"]
