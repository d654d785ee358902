"""Benchmarks: the extension experiments (beyond the paper)."""

from repro.bench.experiments import ext_baselines, ext_skew


def test_ext_baselines(benchmark, settings):
    report = benchmark.pedantic(
        ext_baselines.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "GEQO" in report and "2PO" in report


def test_ext_skew(benchmark, settings):
    report = benchmark.pedantic(
        ext_skew.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "Skewed" in report


def test_ext_feature_vector(benchmark, settings):
    from repro.bench.experiments import ext_feature_vector

    report = benchmark.pedantic(
        ext_feature_vector.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "RC only" in report


def test_ext_partitioning(benchmark, settings):
    from repro.bench.experiments import ext_partitioning

    report = benchmark.pedantic(
        ext_partitioning.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "SDP(parent)" in report


def test_ext_estimation(benchmark, settings):
    from repro.bench.experiments import ext_estimation

    report = benchmark.pedantic(
        ext_estimation.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "result agreement" in report


def test_ext_topologies(benchmark, settings):
    from repro.bench.experiments import ext_topologies

    report = benchmark.pedantic(
        ext_topologies.run, args=(settings,), rounds=1, iterations=1
    )
    print("\n" + report)
    assert "clique" in report
