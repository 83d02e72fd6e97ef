"""Unit tests for workload generators, YCSB, and db_bench suites."""

import math

import pytest

from repro.baselines import LocalOnlyConfig, LocalOnlyStore
from repro.workloads import dbbench, ycsb
from repro.workloads.generator import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    make_key,
    make_request_generator,
    make_value,
)


def make_store():
    return LocalOnlyStore.create(LocalOnlyConfig().small())


def perceived_skew(samples):
    """Normalized entropy deficit in [0, 1]; 0 = uniform, 1 = single key."""
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    n = len(samples)
    entropy = -sum((c / n) * math.log2(c / n) for c in counts.values())
    max_entropy = math.log2(len(counts)) if len(counts) > 1 else 1.0
    return 1.0 - entropy / max_entropy


class TestKeyValue:
    def test_keys_fixed_width_sorted(self):
        keys = [make_key(i) for i in range(1000)]
        assert keys == sorted(keys)
        assert len({len(k) for k in keys}) == 1

    def test_values_deterministic(self):
        assert make_value(42, 100) == make_value(42, 100)
        assert make_value(42, 100) != make_value(43, 100)
        assert len(make_value(7, 333)) == 333


class TestGenerators:
    def test_uniform_range_and_coverage(self):
        gen = UniformGenerator(100, seed=3)
        samples = [gen.next() for _ in range(5000)]
        assert min(samples) >= 0 and max(samples) < 100
        assert len(set(samples)) > 90

    def test_zipfian_rank_skew(self):
        gen = ZipfianGenerator(1000, seed=5)
        samples = [gen.next() for _ in range(20000)]
        assert all(0 <= s < 1000 for s in samples)
        # Item 0 must be by far the most popular.
        top = samples.count(0) / len(samples)
        assert top > 0.05
        uniform_gen = UniformGenerator(1000, seed=5)
        uniform_samples = [uniform_gen.next() for _ in range(20000)]
        assert perceived_skew(samples) > perceived_skew(uniform_samples)

    def test_scrambled_zipfian_spreads_hot_keys(self):
        gen = ScrambledZipfianGenerator(1000, seed=5)
        samples = [gen.next() for _ in range(20000)]
        # Still skewed overall...
        assert perceived_skew(samples) > 0.1
        # ...but the hottest item is no longer rank 0.
        from collections import Counter

        hottest = Counter(samples).most_common(1)[0][0]
        assert hottest != 0

    def test_latest_prefers_recent(self):
        gen = LatestGenerator(1000, seed=5)
        samples = [gen.next() for _ in range(5000)]
        recent = sum(s >= 900 for s in samples) / len(samples)
        assert recent > 0.5

    def test_latest_tracks_growth(self):
        gen = LatestGenerator(100, seed=5)
        gen.set_count(2000)
        samples = [gen.next() for _ in range(2000)]
        assert max(samples) > 1500

    def test_factory(self):
        for dist in ("uniform", "zipfian", "latest"):
            gen = make_request_generator(dist, 10)
            assert 0 <= gen.next() < 10
        with pytest.raises(ValueError):
            make_request_generator("gaussian", 10)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)
        with pytest.raises(ValueError):
            UniformGenerator(0)


class TestYCSBSpecs:
    def test_proportions_validated(self):
        with pytest.raises(ValueError):
            ycsb.YCSBSpec("bad", read_proportion=0.5)

    def test_standard_workloads_well_formed(self):
        assert set(ycsb.ALL_WORKLOADS) == set("ABCDEF")
        assert ycsb.WORKLOAD_C.read_proportion == 1.0
        assert ycsb.WORKLOAD_D.request_distribution == "latest"
        assert ycsb.WORKLOAD_E.scan_proportion == 0.95

    def test_scaled(self):
        spec = ycsb.WORKLOAD_A.scaled(123, 456)
        assert spec.record_count == 123
        assert spec.operation_count == 456
        assert spec.read_proportion == 0.5


class TestYCSBRun:
    def test_load_then_run_counts(self):
        store = make_store()
        spec = ycsb.WORKLOAD_A.scaled(200, 300)
        result = ycsb.run_workload(store, spec, seed=1)
        assert result.operations == 300
        assert sum(result.op_counts.values()) == 300
        assert result.op_counts["read"] > 0
        assert result.op_counts["update"] > 0
        assert result.elapsed_seconds > 0
        assert result.throughput > 0

    def test_workload_c_reads_mostly_found(self):
        store = make_store()
        spec = ycsb.WORKLOAD_C.scaled(300, 300)
        result = ycsb.run_workload(store, spec, seed=2)
        assert result.found > result.not_found

    def test_workload_d_inserts_grow_keyspace(self):
        store = make_store()
        spec = ycsb.WORKLOAD_D.scaled(200, 400)
        result = ycsb.run_workload(store, spec, seed=3)
        assert result.op_counts["insert"] > 0
        assert store.get(make_key(200)) is not None  # first inserted key

    def test_workload_e_scans(self):
        store = make_store()
        spec = ycsb.WORKLOAD_E.scaled(200, 100)
        result = ycsb.run_workload(store, spec, seed=4)
        assert result.op_counts["scan"] > 0

    def test_deterministic_given_seed(self):
        def run():
            store = make_store()
            spec = ycsb.WORKLOAD_A.scaled(150, 200)
            result = ycsb.run_workload(store, spec, seed=9)
            return (result.op_counts, result.found, round(result.elapsed_seconds, 9))

        assert run() == run()

    def test_scan_and_rmw_get_their_own_histograms(self):
        store = make_store()
        spec = ycsb.YCSBSpec(
            "mix",
            read_proportion=0.25,
            update_proportion=0.25,
            scan_proportion=0.25,
            rmw_proportion=0.25,
            record_count=200,
            operation_count=200,
        )
        result = ycsb.run_workload(store, spec, seed=5)
        assert result.scan_latency.count == result.op_counts["scan"] > 0
        assert result.rmw_latency.count == result.op_counts["rmw"] > 0
        assert result.read_latency.count == result.op_counts["read"] > 0
        assert (
            result.update_latency.count
            == result.op_counts["update"] + result.op_counts["insert"]
        )

    def test_latency_for_rejects_unknown_kind(self):
        result = ycsb.YCSBResult("A", "s", 0, 0.0)
        with pytest.raises(ValueError):
            result.latency_for("mystery")


class TestOpStream:
    """The deterministic op stream both runners consume (iter_ops)."""

    def test_iter_ops_deterministic(self):
        spec = ycsb.WORKLOAD_A.scaled(150, 300)
        assert list(ycsb.iter_ops(spec, seed=9)) == list(ycsb.iter_ops(spec, seed=9))

    def test_iter_ops_seed_changes_stream(self):
        spec = ycsb.WORKLOAD_A.scaled(150, 300)
        assert list(ycsb.iter_ops(spec, seed=1)) != list(ycsb.iter_ops(spec, seed=2))

    def test_stream_matches_mix_and_count(self):
        spec = ycsb.WORKLOAD_E.scaled(200, 400)
        ops = list(ycsb.iter_ops(spec, seed=6))
        assert len(ops) == 400
        kinds = {op.kind for op in ops}
        assert kinds <= set(ycsb.OP_KINDS)
        scans = [op for op in ops if op.kind == "scan"]
        assert scans and all(1 <= op.limit <= spec.max_scan_length for op in scans)
        inserts = [op for op in ops if op.kind == "insert"]
        # Inserts extend the keyspace: fresh keys at/above record_count.
        assert inserts and all(op.key >= make_key(200) for op in inserts)

    def test_run_phase_consumes_identical_stream(self):
        # The closed-loop runner and a hand-rolled apply_op loop over
        # iter_ops leave byte-identical store state.
        spec = ycsb.WORKLOAD_A.scaled(150, 250)

        store_a = make_store()
        ycsb.load_phase(store_a, spec)
        ycsb.run_phase(store_a, spec, seed=11)

        store_b = make_store()
        ycsb.load_phase(store_b, spec)
        for op in ycsb.iter_ops(spec, seed=11):
            ycsb.apply_op(store_b, op)

        scan_a = store_a.scan(None, None)
        assert scan_a == store_b.scan(None, None)
        assert len(scan_a) >= spec.record_count

    def test_apply_op_rmw_keeps_prefix(self):
        store = make_store()
        store.put(b"k", b"A" * 10)
        op = ycsb.Op("rmw", b"k", value=b"B" * 5, limit=5)
        ycsb.apply_op(store, op)
        assert store.get(b"k") == b"A" * 5 + b"B" * 5

    def test_apply_op_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ycsb.apply_op(make_store(), ycsb.Op("nope", b"k"))

    def test_outcome_digest_distinguishes_read_results(self):
        import hashlib

        def digest(outcome):
            h = hashlib.sha256()
            ycsb.outcome_digest_update(h, ycsb.Op("read", b"k"), outcome)
            return h.hexdigest()

        assert digest(None) != digest(b"")
        assert digest(b"x") != digest(b"y")


class TestDbBench:
    def test_fillseq_and_readseq(self):
        store = make_store()
        r = dbbench.fillseq(store, 300)
        assert r.operations == 300 and r.ops_per_second > 0
        rs = dbbench.readseq(store, 300)
        assert rs.found == 300

    def test_fillrandom_overwrites_allowed(self):
        store = make_store()
        r = dbbench.fillrandom(store, 300)
        assert r.operations == 300
        assert len(store.scan()) <= 300  # duplicates collapse

    def test_readrandom_found_counts(self):
        store = make_store()
        dbbench.fill_database(store, 200)
        r = dbbench.readrandom(store, 100, 200)
        assert r.found == 100  # every key exists

    def test_seekrandom(self):
        store = make_store()
        dbbench.fill_database(store, 200)
        r = dbbench.seekrandom(store, 20, 200, scan_length=5)
        assert 0 < r.found <= 100
