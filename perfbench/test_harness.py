"""Self-tests of the benchmark's statistics and accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import run  # noqa: E402


class PercentileRankRule(unittest.TestCase):
    def test_nearest_rank_value(self):
        values = list(range(1, 21))  # 1..20, shuffled order must not matter
        self.assertEqual(harness.percentile(values[::-1], 0.5), 10)

    def test_refuses_fewer_than_ten_beyond(self):
        # p50 of 20: rank 10, ten samples beyond it: allowed.
        harness.percentile(list(range(20)), 0.5)
        # p50 of 19: rank 10, nine beyond: refused.
        with self.assertRaises(harness.InsufficientSamples):
            harness.percentile(list(range(19)), 0.5)

    def test_p99_needs_a_thousand_samples(self):
        harness.percentile(list(range(1000)), 0.99)
        with self.assertRaises(harness.InsufficientSamples):
            harness.percentile(list(range(999)), 0.99)

    def test_p90_of_a_hundred(self):
        self.assertEqual(harness.percentile(list(range(1, 101)), 0.9), 90)
        with self.assertRaises(harness.InsufficientSamples):
            harness.percentile(list(range(1, 100)), 0.9)

    def test_empty_and_bad_quantile(self):
        with self.assertRaises(harness.InsufficientSamples):
            harness.percentile([], 0.5)
        with self.assertRaises(ValueError):
            harness.percentile([1.0] * 100, 1.0)


class DueTimeLatency(unittest.TestCase):
    def test_wait_runs_from_due_not_send(self):
        due = [0.0, 10.0, 20.0]
        sent = [0.0, 15.0, 25.0]   # the generator ran 5 ms late twice
        done = [5.0, 18.0, 28.0]
        self.assertEqual(harness.longest_stall(due, done, 0.0, 30.0), 8.0)
        self.assertEqual(harness.generator_lags(due, sent), [0.0, 5.0, 5.0])

    def test_a_stall_charges_the_window_due_earliest_in_it(self):
        # Windows due every 10 ms; an update holds the learner from 5 to
        # 100, so every window due before 100 resolves at 101.
        due = [float(t) for t in range(0, 200, 10)]
        done = [101.0 if t < 100 else t + 1.0 for t in due]
        # The window due at 0 resolved at 101 but was in flight from
        # before the update began.
        self.assertEqual(harness.longest_stall(due, done, 5.0, 100.0), 101.0)
        # Windows due after the update are not charged to it.
        self.assertEqual(harness.longest_stall(due[10:], done[10:],
                                               5.0, 100.0), None)

    def test_unresolved_windows_are_left_out(self):
        self.assertEqual(harness.longest_stall([0.0, 1.0], [2.0, -1.0],
                                               0.0, 5.0), 2.0)

    def test_length_mismatch(self):
        with self.assertRaises(ValueError):
            harness.longest_stall([0.0], [], 0.0, 1.0)


class FailedShare(unittest.TestCase):
    def test_arithmetic(self):
        failed = harness.failed_ops(errors=1, rejects=2, degraded=7,
                                    lost=10)
        self.assertEqual(failed, 20)
        self.assertAlmostEqual(harness.failed_share(200, failed), 0.1)
        self.assertEqual(harness.failed_share(5, 0), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            harness.failed_share(0, 0)
        with self.assertRaises(ValueError):
            harness.failed_share(10, 11)
        with self.assertRaises(ValueError):
            harness.failed_ops(lost=-1)


def settings(forks=2):
    # What run.main() assembles: the binary's config record plus the
    # pipeline's counts.
    return {"setup_reps": 3, "updates": 3, "forks": forks,
            "serve_seconds": 10.0, "live_sessions": 16,
            "live_min_seconds": 4.0, "learn_epochs": 3}


CONFIG = {"kind": "config", "learn_epochs": 3}
DONE = {"kind": "done"}


def setup_proc(total_s=2.5):
    return run.Process([CONFIG, {"kind": "setup", "rep": 0,
                                 "total_s": total_s}, DONE], 0)


def update_proc(index, mismatched=0):
    return run.Process([
        CONFIG,
        {"kind": "update", "index": index, "ok": True, "traced": False,
         "update_s": 3.0, "epochs": 3, "start_ms": 1000.0, "end_ms": 4000.0,
         "accuracy": 0.97, "old_accuracy_before": 0.99,
         "old_accuracy_after": 0.98, "known_classes": 5},
        # One live window before the update, one due mid-update and
        # resolved after it.
        {"kind": "open_windows", "phase": "live", "index": index,
         "due_ms": [900.0, 1500.0], "sent_ms": [900.0, 1500.0],
         "submit_us": [5.0, 5.0], "done_ms": [903.0, 4002.0],
         "queue_depth": [1.0, 1.0],
         "correct": [1, 1], "rejected": [0, 0]},
        {"kind": "check", "name": "batched_equals_batch1", "index": index,
         "rows": 1, "mismatched": mismatched},
        DONE], 0)


def device_fork(windows=500, elapsed_s=1.0, finished=True):
    records = [CONFIG,
               {"kind": "serve_setup", "fork": 0, "load_s": 0.1,
                "known_classes": 5},
               {"kind": "device_windows", "pass": "main",
                "elapsed_s": elapsed_s,
                "latency_ms": [0.5 + 0.001 * i for i in range(windows)],
                "correct": [1] * windows}]
    if not finished:
        return run.Process(records, -6)
    return run.Process(records + [
        {"kind": "phase_end", "name": "device", "pass": "main",
         "windows": windows, "elapsed_s": elapsed_s}, DONE], 0)


def pipeline(setups=3, updates=3, forks=2):
    return {"setup": [setup_proc(t) for t in (3.0, 2.0, 2.5)[:setups]],
            "update": [update_proc(i) for i in range(updates)],
            "serve": [device_fork() for _ in range(forks)]}


def merged(procs):
    return run.Process([r for p in procs["setup"] + procs["update"]
                        for r in p.records], 0)


class Accounting(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        kinds = run.account(pipeline(), settings(), 0)
        self.assertEqual(kinds, {"setups": (3, 0), "updates": (3, 0),
                                 "windows": (3 * 2 + 2 * 500, 0)})
        self.assertEqual(harness.completed_share(kinds), 1.0)

    def test_aborted_fork_loses_the_rest_of_its_share(self):
        procs = pipeline()
        # Fork 1 died (SIGABRT) 2.5 s into its 5 s share, at 100/s.
        procs["serve"][1] = device_fork(windows=250, elapsed_s=2.5,
                                        finished=False)
        attempted, failed = run.account(procs, settings(), 0)["windows"]
        self.assertEqual(failed, 250)
        self.assertEqual(attempted, 6 + 500 + 250 + 250)

    def test_aborted_update_loses_its_planned_live_windows(self):
        procs = pipeline()
        # Update 1 died inside LearnNewClasses before flushing a record.
        procs["update"][1] = run.Process([CONFIG], -6)
        kinds = run.account(procs, settings(), 0)
        self.assertEqual(kinds["updates"], (3, 1))
        self.assertEqual(kinds["windows"], (2 * 2 + 64 + 1000, 64))
        # The lost update shows in completed_share, however many windows
        # the run counted.
        self.assertAlmostEqual(harness.completed_share(kinds), 2 / 3)

    def test_update_that_aborts_after_its_record_still_fails(self):
        procs = pipeline()
        procs["update"][2] = run.Process(procs["update"][2].records[:-1], -6)
        kinds = run.account(procs, settings(), 0)
        self.assertEqual(kinds["updates"], (3, 1))
        # Its live windows were flushed, so none is lost.
        self.assertEqual(kinds["windows"][1], 0)

    def test_processes_that_never_ran_are_lost(self):
        procs = pipeline(updates=0, forks=0)
        procs["update"] = [run.Process([CONFIG], -6)]
        kinds = run.account(procs, settings(), 0)
        self.assertEqual(kinds["updates"], (3, 3))
        self.assertEqual(kinds["windows"], (3 * 64 + 2, 3 * 64 + 2))
        notes = run.process_notes(procs, {"setup": 0, "update": 0,
                                          "serve": 0}, settings())
        self.assertTrue(any("never ran" in n for n in notes))

    def test_budget_skips_are_reported_apart_from_aborts(self):
        procs = pipeline(forks=1)
        notes = run.process_notes(procs, {"setup": 0, "update": 0,
                                          "serve": 1}, settings())
        self.assertEqual(notes, ["1 serve processes not started: run "
                                 "budget spent"])

    def test_aborted_setup_fails_a_third_of_the_setups(self):
        procs = pipeline()
        procs["setup"][0] = run.Process([CONFIG], -6)
        kinds = run.account(procs, settings(), 0)
        self.assertEqual(kinds["setups"], (3, 1))
        self.assertAlmostEqual(harness.completed_share(kinds), 2 / 3)

    def test_budget_grows_with_the_serve_phase(self):
        self.assertEqual(run.run_budget_s(10), 165.0)
        self.assertEqual(run.run_budget_s(40) - run.run_budget_s(10), 30.0)

    def test_end_to_end_metrics_from_records(self):
        procs = pipeline()
        m = run.end_to_end(merged(procs), procs["serve"], "device_stream")
        self.assertEqual(m["setup_s"], 2.5)
        self.assertEqual(m["update_s"], 3.0)
        self.assertEqual(m["epoch_s"], 1.0)
        self.assertAlmostEqual(m["retention"], 0.98 / 0.99)
        # The window due at 1500 waited until 4002.
        self.assertAlmostEqual(m["stall_ms"], 2502.0)
        # 1000 samples 0.500..0.999 ms (each twice): nearest-rank p50.
        self.assertAlmostEqual(m["latency_p50_ms"], 0.749)
        self.assertAlmostEqual(m["throughput_per_s"], 500.0)
        self.assertEqual(m["accuracy"], 1.0)
        m = run.end_to_end(merged(procs), procs["serve"], "learn_update")
        self.assertEqual(m["accuracy"], 0.97)


class Checks(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.check(pipeline(), "learn_update",
                                   {"accuracy": 0.97}), [])

    def test_batched_label_mismatch_fails(self):
        procs = pipeline()
        procs["update"][0] = update_proc(0, mismatched=1)
        bad = run.check(procs, "learn_update", {})
        self.assertEqual(len(bad), 1)
        self.assertIn("batch-1", bad[0])

    def test_missing_bit_identity_check_fails(self):
        procs = pipeline()
        records = [r for r in procs["update"][0].records
                   if r["kind"] != "check"]
        procs["update"][0] = run.Process(records, 0)
        self.assertEqual(len(run.check(procs, "learn_update", {})), 1)
        # An update process that aborted is a failed operation, not a
        # wrong output.
        procs["update"][0] = run.Process(records[:-1], -6)
        self.assertEqual(run.check(procs, "learn_update", {}), [])

    def test_accuracy_floor(self):
        self.assertEqual(len(run.check(pipeline(), "device_stream",
                                       {"accuracy": 0.3})), 1)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(harness.quartile_spread([1.0] * 10), 0.0)
        values = [9.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 11.0]
        self.assertLess(harness.quartile_spread(values), 0.05)


if __name__ == "__main__":
    unittest.main()
