"""Tests of run.py: metric names, the metric mapping and the
correctness gate. Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`."""

import copy
import json
import re
import struct
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bits(x):
    return struct.pack(">d", x).hex()


def history(*xs):
    return [bits(x) for x in xs]


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(run.SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_metric_names_and_units_are_well_formed(self):
        names = []
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        for w in self.spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_spec_lists_exactly_what_run_py_emits(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], run.end_to_end_names())
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], run.per_layer_names())

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def good_results(trace=False):
    h = history(27.0, 1.5, 0.01)
    r = {}
    for impl in run.IMPLS:
        r[impl] = {"solve_s": [0.5, 0.6, 0.7], "history": h,
                   "repeats_bitwise_equal": True, "vmhwm_kb": 1024, "dof": 8.0}
        if impl != "hand":
            r[impl].update(setup_s=[0.1, 0.2, 0.3], points_per_op=[8, 4])
    r["hand"]["history"] = history(27.0, 1.5 * (1 + 1e-9), 1e-14)
    if trace:
        for b in run.BACKENDS:
            r[b].update(
                traced_bitwise_equal=True, points_per_cycle=100.0,
                points_counted_per_cycle=100.0,
                op_calls_per_cycle={k: 1.0 for k in run.KINDS},
                op_s={k: 0.1 for k in run.KINDS},
                level_s={lv: 0.1 for lv in run.LEVEL_BUCKETS},
                smooth_l0_bytes=1e9, smooth_l0_s=0.5, spec_hits=9, spec_misses=1,
                bottom_call_s=1e-5, parallel_tasks_per_cycle=4.0,
                phases_per_cycle=3.0, hpgmg_self_s=0.01, compile_backend_s=0.2,
                traced_solve_s=[0.51, 0.61], disk_hits=3, disk_misses=0,
                levels_build_s=0.05)
        r["seq"]["compile_stage_s"] = {s: 0.01 for s in run.STAGES}
    return r


class GateTest(unittest.TestCase):
    def test_consistent_results_pass(self):
        self.assertEqual(run.gate(good_results(), trace=False), {})
        self.assertEqual(run.gate(good_results(trace=True), trace=True), {})

    def test_one_bit_off_in_a_rust_backend_fails_it(self):
        r = good_results()
        r["omp"]["history"] = history(27.0, 1.5, 0.01 * (1 + 2 ** -50))
        self.assertEqual(list(run.gate(r, trace=False)), ["omp"])

    def test_cjit_tolerance(self):
        r = good_results()
        r["cjit"]["history"] = history(27.0, 1.5 * (1 + 1e-13), 0.01)
        self.assertEqual(run.gate(r, trace=False), {})
        r["cjit"]["history"] = history(27.0, 1.5 * (1 + 1e-11), 0.01)
        self.assertEqual(list(run.gate(r, trace=False)), ["cjit"])

    def test_hand_is_compared_above_the_round_off_floor_only(self):
        r = good_results()
        r["hand"]["history"] = history(27.0, 1.5, 1e-12)  # below the floor
        self.assertEqual(run.gate(r, trace=False), {})
        r["hand"]["history"] = history(27.0, 1.6, 0.01)  # above it, 6% off
        self.assertEqual(sorted(run.gate(r, trace=False)), sorted(run.BACKENDS))

    def test_work_counts_must_agree(self):
        r = good_results()
        r["oclsim"]["points_per_op"] = [8, 5]
        self.assertEqual(list(run.gate(r, trace=False)), ["oclsim"])
        r = good_results(trace=True)
        r["cjit"]["op_calls_per_cycle"] = dict(r["cjit"]["op_calls_per_cycle"], bottom=2.0)
        self.assertEqual(list(run.gate(r, trace=True)), ["cjit"])

    def test_traced_run_must_match_untraced(self):
        r = good_results(trace=True)
        r["seq"]["traced_bitwise_equal"] = False
        self.assertEqual(list(run.gate(r, trace=True)), ["seq"])

    def test_crashed_implementation_is_not_gated(self):
        r = good_results()
        r["omp"] = None
        self.assertEqual(run.gate(r, trace=False), {})


class MetricsTest(unittest.TestCase):
    def test_end_to_end_covers_every_metric(self):
        m = run.end_to_end(good_results(), wl_dof=8)
        self.assertEqual(sorted(m), sorted(run.end_to_end_names()))
        self.assertAlmostEqual(m["setup_s"], 0.8)
        self.assertAlmostEqual(m["solve_dof_per_s.seq"], 8 / 0.6 / 1e6)

    def test_per_layer_covers_every_metric(self):
        probes = {"stream": {"stream_gbs": 10.0}, "forkjoin": {"forkjoin_us": 50.0}}
        m = run.per_layer(good_results(trace=True), probes)
        self.assertEqual(sorted(m), sorted(run.per_layer_names()))
        self.assertAlmostEqual(m["smooth_L0_gbs.seq"], 2.0)
        self.assertAlmostEqual(m["smooth_L0_roofline_frac.seq"], 0.2)
        self.assertAlmostEqual(m["spec_hit_rate.omp"], 0.9)

    def test_tail_keeps_ten_samples_beyond_it(self):
        value, pct = run.tail(list(range(30)))
        self.assertEqual(value, 19)
        self.assertEqual(sum(1 for x in range(30) if x > value), 10)
        self.assertAlmostEqual(pct, 200 / 3)
        self.assertEqual(run.tail(list(range(19))), (None, None))

    def test_steal_perturbed_solves_are_left_out(self):
        r = {"solve_s": [1.0, 1.1, 1.2, 9.0], "steal": [0.0, 0.01, 0.02, 0.3]}
        self.assertEqual(run.clean_solves(r), [1.0, 1.1, 1.2])
        # Too few clean solves: the least-stolen half.
        r = {"solve_s": [4.0, 2.0, 3.0, 9.0], "steal": [0.2, 0.06, 0.1, 0.3]}
        self.assertEqual(run.clean_solves(r), [2.0, 3.0])
        # No steal readings: every solve counts.
        r = {"solve_s": [3.0, 1.0, 2.0], "steal": [None, None, None]}
        self.assertEqual(run.clean_solves(r), [3.0, 1.0, 2.0])

    def test_missing_implementation_drops_only_its_metrics(self):
        r = copy.deepcopy(good_results())
        r["cjit"] = None
        m = run.end_to_end(r, wl_dof=8)
        self.assertNotIn("solve_dof_per_s.cjit", m)
        self.assertNotIn("setup_s", m)
        self.assertIn("solve_dof_per_s.seq", m)


if __name__ == "__main__":
    unittest.main()
