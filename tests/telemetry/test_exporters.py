"""Tests for the JSONL / CSV / Chrome-trace telemetry exporters."""

import json
from collections import defaultdict
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.platform.generator import TreeGeneratorParams, generate_tree
from repro.protocols import ProtocolConfig, ProtocolEngine, Tracer
from repro.telemetry import TelemetryConfig, chrome_trace, dump_jsonl, load_jsonl
from repro.telemetry.export import dump_csv, export_auto, write_chrome_trace


@pytest.fixture(scope="module")
def traced_run():
    tree = generate_tree(TreeGeneratorParams(min_nodes=20, max_nodes=20),
                         seed=11)
    # FB=1 forces preemptions, so the trace carries "i" instant markers.
    config = replace(ProtocolConfig.interruptible(1),
                     telemetry=TelemetryConfig.tracing(sample_dt=10))
    engine = ProtocolEngine(tree, config, 300)
    tracer = Tracer()
    engine.sinks.append(tracer)
    result = engine.run()
    return result, tracer


@pytest.fixture(scope="module")
def snapshot(traced_run):
    return traced_run[0].telemetry


class TestJsonl:
    def test_round_trip_by_value(self, snapshot, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        assert dump_jsonl(snapshot, path) == 1
        assert dump_jsonl([snapshot, snapshot], path) == 2  # appends
        loaded = load_jsonl(path)
        assert len(loaded) == 3
        for other in loaded:
            assert other == snapshot

    def test_rejects_foreign_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "something-else"}\n')
        with pytest.raises(ReproError):
            load_jsonl(str(path))


class TestCsv:
    def test_header_and_rows(self, snapshot, tmp_path):
        path = tmp_path / "series.csv"
        rows = dump_csv(snapshot, str(path))
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "time"
        assert sorted(header[1:]) == sorted(snapshot.series)
        assert len(lines) == rows + 1
        assert rows == len(snapshot.series["completed"][0])
        # Each row parses back to the series values.
        first = lines[1].split(",")
        assert int(first[0]) == snapshot.series[header[1]][0][0]


class TestChromeTrace:
    def test_requires_some_input(self):
        with pytest.raises(ReproError):
            chrome_trace()

    def test_valid_json_with_expected_phases(self, traced_run, tmp_path):
        result, tracer = traced_run
        path = tmp_path / "run.trace.json"
        count = write_chrome_trace(str(path), result.telemetry, tracer=tracer)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == count
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        assert doc["otherData"]["num_nodes"] == result.telemetry.num_nodes

    def test_slices_monotone_per_lane(self, traced_run):
        result, tracer = traced_run
        doc = chrome_trace(result.telemetry, tracer=tracer)
        lanes = defaultdict(list)
        for event in doc["traceEvents"]:
            if event["ph"] in ("X", "C"):
                key = (event["pid"], event.get("tid"), event["name"])
                lanes[key].append(event["ts"])
        for key, stamps in lanes.items():
            assert stamps == sorted(stamps), key

    def test_counter_tracks_match_series(self, snapshot):
        doc = chrome_trace(snapshot)
        by_name = defaultdict(list)
        for event in doc["traceEvents"]:
            if event["ph"] == "C":
                by_name[event["name"]].append(event["args"]["value"])
        for name, (_, values) in snapshot.series.items():
            assert by_name[name] == list(values)
        # Per-node tracks are exported under name/nodeN.
        for name, per_node in snapshot.node_series.items():
            for node, (_, values) in per_node.items():
                assert by_name[f"{name}/node{node}"] == list(values)

    def test_slices_cover_compute_intervals(self, traced_run):
        _result, tracer = traced_run
        doc = chrome_trace(tracer=tracer)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "compute"]
        expected = sum(len(tracer.compute_intervals(node))
                       for node in range(20))
        assert len(slices) == expected


class TestExportAuto:
    def test_dispatch_by_extension(self, snapshot, tmp_path):
        jsonl = str(tmp_path / "out.jsonl")
        csv = str(tmp_path / "out.csv")
        trace = str(tmp_path / "out.trace.json")
        assert export_auto(jsonl, [snapshot, snapshot]) == 2
        assert load_jsonl(jsonl)[0] == snapshot
        assert export_auto(csv, snapshot) > 0
        assert export_auto(trace, snapshot) > 0
        json.loads((tmp_path / "out.trace.json").read_text())

    def test_csv_rejects_ensembles(self, snapshot, tmp_path):
        with pytest.raises(ReproError):
            export_auto(str(tmp_path / "out.csv"), [snapshot, snapshot])

    def test_nothing_to_export(self, tmp_path):
        with pytest.raises(ReproError):
            export_auto(str(tmp_path / "out.trace.json"), [])


class TestMultiAppTrace:
    """One Perfetto process group per application."""

    @pytest.fixture(scope="class")
    def two_app_traced(self):
        from repro import simulate
        from repro.apps import Application

        tree = generate_tree(TreeGeneratorParams(min_nodes=12, max_nodes=18),
                             seed=11)
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        tracers = [Tracer(), Tracer()]
        result = simulate(
            tree, [Application(40, name="alpha"), Application(40, name="beta")],
            config, allocator="selfish", tracer=tracers)
        return result, tracers

    def test_one_pid_per_app(self, two_app_traced):
        from repro.telemetry.export import multi_app_trace

        result, tracers = two_app_traced
        entries = [(a.name, a.telemetry, t)
                   for a, t in zip(result.apps, tracers)]
        doc = multi_app_trace(entries)
        names = {e["pid"]: e["args"]["name"]
                 for e in doc["traceEvents"] if e["name"] == "process_name"}
        assert names == {0: "alpha", 1: "beta"}
        by_pid = defaultdict(set)
        for event in doc["traceEvents"]:
            by_pid[event["pid"]].add(event["ph"])
        # Both apps carry activity slices and counter tracks.
        assert {"X", "C"} <= by_pid[0] and {"X", "C"} <= by_pid[1]

    def test_write_multi_app_trace(self, two_app_traced, tmp_path):
        from repro.telemetry.export import write_multi_app_trace

        result, tracers = two_app_traced
        entries = [(a.name, a.telemetry, t)
                   for a, t in zip(result.apps, tracers)]
        path = tmp_path / "apps.trace.json"
        count = write_multi_app_trace(str(path), entries)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count

    def test_rejects_empty_and_bare_entries(self):
        from repro.telemetry.export import multi_app_trace

        with pytest.raises(ReproError):
            multi_app_trace([])
        with pytest.raises(ReproError):
            multi_app_trace([("ghost", None, None)])

    def test_single_app_trace_unchanged(self, traced_run):
        """The single-app exporter still emits pid 0 / "simulation"."""
        result, tracer = traced_run
        doc = chrome_trace(result.telemetry, tracer=tracer)
        meta = [e for e in doc["traceEvents"] if e["name"] == "process_name"]
        assert meta == [{"name": "process_name", "ph": "M", "pid": 0,
                         "args": {"name": "simulation"}}]


class TestExportBytesPinned:
    """The exporters' bytes are part of the format: JSONL records, CSV
    columns and Perfetto tracks follow the snapshot's key order, so a
    change to how the probe stores its counters and series must leave
    every byte where it was."""

    @staticmethod
    def _digests(snapshots, tracers):
        import hashlib
        import io

        def digest(write):
            out = io.StringIO()
            write(out)
            return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]

        def traces(out):
            for snapshot, tracer in zip(snapshots, tracers):
                write_chrome_trace(out, snapshot, tracer=tracer)

        def csvs(out):
            for snapshot in snapshots:
                dump_csv(snapshot, out)

        return (digest(lambda out: dump_jsonl(snapshots, out)),
                digest(csvs), digest(traces))

    def test_traced_tree(self, traced_run):
        result, tracer = traced_run
        assert self._digests([result.telemetry], [tracer]) == (
            "39061c2233a45a47", "f78842458ced59ba", "3e98242767ed01c3")

    def test_fairshare_apps_carry_contention_tracks(self):
        from repro import simulate
        from repro.apps import Application

        tree = generate_tree(TreeGeneratorParams(min_nodes=12, max_nodes=18),
                             seed=5)
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        tracers = [Tracer(), Tracer()]
        result = simulate(tree, [Application(60), Application(60)], config,
                          allocator="fairshare", tracer=tracers)
        snapshots = [app.telemetry for app in result.apps]
        assert "contention_solves" in snapshots[0].series
        assert self._digests(snapshots, tracers) == (
            "b67eb742e5bffdee", "f7d1bd0fd7d42d3b", "51375ab4df623c08")

    def test_open_loop_day_carries_service_tracks(self):
        from repro import simulate
        from repro.apps import Workload
        from repro.service import DiurnalArrivals, TokenBucket

        tree = generate_tree(TreeGeneratorParams(min_nodes=15, max_nodes=15),
                             seed=2)
        workload = Workload(
            arrivals=DiurnalArrivals(rates=(0.05, 0.4, 0.1), phase_len=300,
                                     horizon=2400, seed=3),
            admission=TokenBucket(rate="1/4", burst=16))
        config = replace(ProtocolConfig.interruptible(3),
                         telemetry=TelemetryConfig.tracing(sample_dt=10))
        tracer = Tracer()
        result = simulate(tree, workload, config, tracer=tracer)
        assert "service_in_system" in result.telemetry.series
        assert self._digests([result.telemetry], [tracer]) == (
            "b9af54a7465b7113", "a2a3f67aeb302c8d", "159d4466d0f67c83")
