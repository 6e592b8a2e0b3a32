#!/usr/bin/env python3
"""Self-test for pilote_lint.py.

Feeds known-bad C++ snippets through every analyzer check and asserts the
check fires (and that the matching clean snippet passes). This is the
lint's own regression gate: a refactor of the scanners that silently stops
detecting a violation class fails here, not in review.

Runs under plain unittest (no third-party test deps):

  python3 tools/pilote_lint_test.py
"""

import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pilote_lint  # noqa: E402  (path bootstrap above)


def analyze(source, check, rel_path=os.path.join("src", "serve", "x.h")):
    """Writes `source` to a temp file, runs one check function over it, and
    returns the collected error strings."""
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.h")
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(source))
        stripped, raw = pilote_lint.stripped_lines_of(path)
        if check is pilote_lint.check_guarded_members:
            check(tmp, rel_path, stripped, raw, errors)
        else:
            check(tmp, rel_path, stripped, errors)
    return errors


class RawSyncTypesTest(unittest.TestCase):
    def test_raw_mutex_rejected(self):
        errors = analyze("std::mutex m_;", pilote_lint.check_raw_sync_types)
        self.assertEqual(len(errors), 1)
        self.assertIn("raw std::mutex", errors[0])

    def test_raw_shared_mutex_and_lock_guard_rejected(self):
        src = """
            std::shared_mutex rw_;
            std::lock_guard<std::mutex> lock(m_);
        """
        errors = analyze(src, pilote_lint.check_raw_sync_types)
        self.assertEqual(len(errors), 2)

    def test_wrapper_types_pass(self):
        src = """
            mutable Mutex mutex_;
            CondVar cv_;
            MutexLock lock(mutex_);
        """
        self.assertEqual(analyze(src, pilote_lint.check_raw_sync_types), [])

    def test_mention_in_comment_passes(self):
        src = "// std::mutex is banned here\nMutex mutex_;\n"
        self.assertEqual(analyze(src, pilote_lint.check_raw_sync_types), [])

    def test_thread_annotations_header_is_exempt(self):
        errors = analyze(
            "std::mutex m_;", pilote_lint.check_raw_sync_types,
            rel_path=os.path.join("src", "common", "thread_annotations.h"))
        self.assertEqual(errors, [])


class GuardedMembersTest(unittest.TestCase):
    def test_unguarded_member_in_lock_owning_class_fires(self):
        src = """
            class Engine {
             public:
              void Tick();
             private:
              Mutex mutex_;
              int ticks_;
            };
        """
        errors = analyze(src, pilote_lint.check_guarded_members)
        self.assertEqual(len(errors), 1)
        self.assertIn("'ticks_'", errors[0])
        self.assertIn("Engine", errors[0])

    def test_annotated_and_exempt_members_pass(self):
        src = """
            class Engine {
             private:
              mutable Mutex mutex_;
              CondVar cv_;
              int ticks_ PILOTE_GUARDED_BY(mutex_) = 0;
              std::vector<int> log_ PILOTE_GUARDED_BY(mutex_);
              std::unique_ptr<int> p_ PILOTE_PT_GUARDED_BY(mutex_);
              std::atomic<int> fast_{0};
              std::thread worker_;
              const int capacity_;
              Queue q_;  // unguarded: internally synchronized
            };
        """
        self.assertEqual(analyze(src, pilote_lint.check_guarded_members), [])

    def test_marker_on_preceding_comment_line_passes(self):
        src = """
            struct S {
              SharedMutex mu;
              // unguarded: written once before the object is shared
              int seed;
            };
        """
        self.assertEqual(analyze(src, pilote_lint.check_guarded_members), [])

    def test_pointer_const_member_passes(self):
        src = """
            class Monitor {
              Mutex mutex_;
              Engine* const engine_;
              int depth_ PILOTE_GUARDED_BY(mutex_);
            };
        """
        self.assertEqual(analyze(src, pilote_lint.check_guarded_members), [])

    def test_mutable_pointer_member_still_fires(self):
        src = """
            class Monitor {
              Mutex mutex_;
              Engine* engine_;
            };
        """
        errors = analyze(src, pilote_lint.check_guarded_members)
        self.assertEqual(len(errors), 1)
        self.assertIn("engine_", errors[0])

    def test_class_without_lock_is_not_checked(self):
        src = """
            class Plain {
              int a_;
              std::string b_;
            };
        """
        self.assertEqual(analyze(src, pilote_lint.check_guarded_members), [])

    def test_methods_and_nested_scopes_are_skipped(self):
        src = """
            class Engine {
             public:
              Engine() : n_(0) { int local; local = 1; }
              int n() const { return n_; }
              enum class Mode { kA, kB };
             private:
              Mutex mutex_;
              int n_ PILOTE_GUARDED_BY(mutex_);
            };
        """
        self.assertEqual(analyze(src, pilote_lint.check_guarded_members), [])


class AtomicMemoryOrderTest(unittest.TestCase):
    def test_implicit_order_fires(self):
        src = """
            std::atomic<int> hits_{0};
            void F() { hits_.fetch_add(1); }
        """
        errors = analyze(src, pilote_lint.check_atomic_memory_order)
        self.assertEqual(len(errors), 1)
        self.assertIn("fetch_add", errors[0])

    def test_explicit_order_passes(self):
        src = """
            std::atomic<int> hits_{0};
            void F() { hits_.fetch_add(1, std::memory_order_relaxed); }
            int G() { return hits_.load(std::memory_order_acquire); }
        """
        self.assertEqual(
            analyze(src, pilote_lint.check_atomic_memory_order), [])

    def test_multiline_call_with_order_passes(self):
        src = """
            std::atomic<double> sum_{0.0};
            void F(double v) {
              double s = sum_.load(std::memory_order_relaxed);
              while (!sum_.compare_exchange_weak(s, s + v,
                                                 std::memory_order_relaxed)) {
              }
            }
        """
        self.assertEqual(
            analyze(src, pilote_lint.check_atomic_memory_order), [])

    def test_operator_on_atomic_fires(self):
        src = """
            std::atomic<int> count_{0};
            void F() { ++count_; }
            void G() { count_ += 2; }
        """
        errors = analyze(src, pilote_lint.check_atomic_memory_order)
        self.assertEqual(len(errors), 2)
        self.assertIn("implicit seq_cst", errors[0])

    def test_container_clear_and_condvar_wait_pass(self):
        src = """
            void F() {
              buffer_.clear();
              cv_.wait(lock);
            }
        """
        self.assertEqual(
            analyze(src, pilote_lint.check_atomic_memory_order), [])


class DiscardedResultTest(unittest.TestCase):
    DECLS = 'Result<int> Make(int x);\nResult<int> Helper::Get() const;\n'

    def run_check(self, call_site):
        errors = []
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            with open(os.path.join(tmp, "src", "api.h"), "w",
                      encoding="utf-8") as f:
                f.write(self.DECLS)
            with open(os.path.join(tmp, "src", "use.cc"), "w",
                      encoding="utf-8") as f:
                f.write(textwrap.dedent(call_site))
            files = [os.path.join("src", "api.h"),
                     os.path.join("src", "use.cc")]
            fns = pilote_lint.collect_result_function_names(tmp, files)
            stripped, _ = pilote_lint.stripped_lines_of(
                os.path.join(tmp, "src", "use.cc"))
            pilote_lint.check_discarded_results(
                tmp, os.path.join("src", "use.cc"), stripped, fns, errors)
        return errors

    def test_bare_call_fires(self):
        errors = self.run_check("void F() {\n  Make(1);\n}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("'Make(...)'", errors[0])

    def test_bare_member_call_fires(self):
        errors = self.run_check("void F(Helper& h) {\n  h.Get();\n}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("'Get(...)'", errors[0])

    def test_consumed_calls_pass(self):
        src = """
            void F(Helper& h) {
              auto r = Make(1);
              if (!Make(2).ok()) return;
              return Make(3);
            }
        """
        self.assertEqual(self.run_check(src), [])

    def test_argument_position_passes(self):
        src = """
            void F() {
              Consume(Make(1),
                      Make(2));
            }
        """
        self.assertEqual(self.run_check(src), [])

    def test_bare_failpoint_statement_fires(self):
        src = """
            Status Save() {
              PILOTE_FAILPOINT("core/artifact/save");
              return Status::Ok();
            }
        """
        errors = analyze(src, pilote_lint.check_discarded_failpoints)
        self.assertEqual(len(errors), 1)
        self.assertIn("swallowed", errors[0])

    def test_handled_failpoint_passes(self):
        src = """
            Status Save() {
              PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/artifact/save"));
              Status torn = PILOTE_FAILPOINT("serialize/atomic/torn");
              if (!torn.ok()) return torn;
              return PILOTE_FAILPOINT("core/artifact/load");
            }
        """
        self.assertEqual(
            analyze(src, pilote_lint.check_discarded_failpoints), [])

    def test_ambiguous_overload_is_not_flagged(self):
        errors = []
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            with open(os.path.join(tmp, "src", "api.h"), "w",
                      encoding="utf-8") as f:
                f.write("Result<int> Make(int x);\nvoid Make(double y);\n")
            with open(os.path.join(tmp, "src", "use.cc"), "w",
                      encoding="utf-8") as f:
                f.write("void F() {\n  Make(1.0);\n}\n")
            files = [os.path.join("src", "api.h"),
                     os.path.join("src", "use.cc")]
            fns = pilote_lint.collect_result_function_names(tmp, files)
            stripped, _ = pilote_lint.stripped_lines_of(
                os.path.join(tmp, "src", "use.cc"))
            pilote_lint.check_discarded_results(
                tmp, os.path.join("src", "use.cc"), stripped, fns, errors)
        self.assertEqual(errors, [])


def hotpath_errors(files):
    """Writes a src/ tree and runs the hotpath stage over it."""
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for rel, content in files.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(textwrap.dedent(content))
        pilote_lint.run_hotpath_stage(tmp, errors)
    return errors


def hot(body):
    """A marked hot root whose body is `body`."""
    return ("PILOTE_HOT_PATH void Serve();\n"
            "void Serve() {\n" + textwrap.dedent(body) + "}\n")


class HotpathChecksTest(unittest.TestCase):
    """Every hotpath check must fire on a known-bad body and stay silent
    once the line carries `// hotpath-ok: <reason>`."""

    CASES = [
        ("heap-new", "  int* p = new int(3);\n  Use(p);\n"),
        ("heap-new", "  auto p = std::make_unique<int>(3);\n"),
        ("container-growth", "  sink_.push_back(1);\n"),
        ("container-growth", "  sink_.resize(8);\n"),
        ("local-alloc", "  std::vector<int> tmp;\n"),
        ("local-alloc", "  Tensor t(shape_);\n"),
        ("string-build", "  Use(std::to_string(42));\n"),
        ("writer-lock", "  MutexLock lock(mutex_);\n"),
        ("throw", "  throw 42;\n"),
        ("blocking-io",
         "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"),
    ]

    def test_each_check_fires(self):
        for check_id, body in self.CASES:
            with self.subTest(check=check_id, body=body):
                errors = hotpath_errors(
                    {os.path.join("src", "a.cc"): hot(body)})
                self.assertEqual(len(errors), 1, errors)
                self.assertIn(f"[hotpath:{check_id}]", errors[0])
                self.assertIn("'Serve'", errors[0])

    def test_line_marker_suppresses(self):
        for check_id, body in self.CASES:
            with self.subTest(check=check_id):
                marked = "".join(
                    line + "  // hotpath-ok: test\n"
                    for line in body.rstrip("\n").split("\n"))
                errors = hotpath_errors(
                    {os.path.join("src", "a.cc"): hot(marked)})
                self.assertEqual(errors, [], errors)

    def test_comment_line_above_suppresses(self):
        body = "  // hotpath-ok: the per-call output\n  Tensor t(shape_);\n"
        self.assertEqual(
            hotpath_errors({os.path.join("src", "a.cc"): hot(body)}), [])

    def test_check_statements_are_exempt(self):
        body = ("  PILOTE_CHECK_EQ(a.rank(), 2)\n"
                "      << std::to_string(a.rank());\n"
                "  PILOTE_DCHECK(ok_);\n")
        self.assertEqual(
            hotpath_errors({os.path.join("src", "a.cc"): hot(body)}), [])

    def test_no_roots_no_errors(self):
        src = "void F() { int* p = new int(3); Use(p); }\n"
        self.assertEqual(
            hotpath_errors({os.path.join("src", "a.cc"): src}), [])


class HotpathClosureTest(unittest.TestCase):
    def test_violation_in_transitive_callee_fires_with_chain(self):
        files = {
            os.path.join("src", "a.cc"): (
                "PILOTE_HOT_PATH void Serve();\n"
                "void Serve() { Step(); }\n"
                "void Step() { Leaf(); }\n"),
            os.path.join("src", "b.cc"): (
                "void Leaf() {\n"
                "  std::vector<int> tmp;\n"
                "}\n"),
        }
        errors = hotpath_errors(files)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("[hotpath:local-alloc]", errors[0])
        self.assertIn("hot via Leaf <- Step <- Serve", errors[0])

    def test_head_marker_prunes_subtree(self):
        files = {
            os.path.join("src", "a.cc"): (
                "PILOTE_HOT_PATH void Serve();\n"
                "void Serve() { Step(); }\n"
                "// hotpath-ok: cold by construction\n"
                "void Step() { Leaf(); }\n"
                "void Leaf() { int* p = new int(3); Use(p); }\n"),
        }
        self.assertEqual(hotpath_errors(files), [])

    def test_head_marker_exempts_own_body(self):
        files = {
            os.path.join("src", "a.cc"): (
                "PILOTE_HOT_PATH void Serve();\n"
                "// hotpath-ok: setup, called once\n"
                "void Serve() { int* p = new int(3); Use(p); }\n"),
        }
        self.assertEqual(hotpath_errors(files), [])

    def test_name_keyed_roots_catch_same_named_definitions(self):
        # Root discovery is name-keyed: marking one hot `Run` entry point
        # makes every function whose bare name is `Run` a root, including
        # an unrelated cold driver in another file.
        files = {
            os.path.join("src", "exec", "executor.cc"): (
                "PILOTE_HOT_PATH void Run();\n"
                "void Run() { Replay(); }\n"
                "void Replay() { Use(arena_); }\n"),
            os.path.join("src", "core", "cloud.cc"): (
                "void Run() {\n"
                "  std::vector<int> epochs;\n"
                "}\n"),
        }
        errors = hotpath_errors(files)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("[hotpath:local-alloc]", errors[0])
        self.assertIn("'Run'", errors[0])

    def test_head_marker_releases_name_collided_cold_function(self):
        # The escape for the collision above: a head-level hotpath-ok on
        # the cold same-named definition prunes it (and its callees) while
        # the genuinely hot definition stays checked.
        files = {
            os.path.join("src", "exec", "executor.cc"): (
                "PILOTE_HOT_PATH void Run();\n"
                "void Run() { Replay(); }\n"
                "void Replay() { Use(arena_); }\n"),
            os.path.join("src", "core", "cloud.cc"): (
                "// hotpath-ok: cold pre-training driver, shares the bare\n"
                "// name Run with the hot executor entry point\n"
                "void Run() {\n"
                "  std::vector<int> epochs;\n"
                "}\n"),
        }
        self.assertEqual(hotpath_errors(files), [])

    def test_accessor_names_do_not_propagate(self):
        # `size` is an accessor name: a same-named free function with a
        # violation must not be dragged into the closure.
        files = {
            os.path.join("src", "a.cc"): (
                "PILOTE_HOT_PATH void Serve();\n"
                "void Serve() { int n = q.size(); Use(n); }\n"),
            os.path.join("src", "b.cc"): (
                "int size() {\n"
                "  std::vector<int> tmp;\n"
                "  return 0;\n"
                "}\n"),
        }
        self.assertEqual(hotpath_errors(files), [])

    def test_calls_inside_check_statements_do_not_propagate(self):
        # ToString is only reached from a fatal CHECK message; it must not
        # join the hot closure.
        files = {
            os.path.join("src", "a.cc"): (
                "PILOTE_HOT_PATH void Serve();\n"
                "void Serve() {\n"
                "  PILOTE_CHECK_EQ(a, b) << Describe(a);\n"
                "}\n"
                "std::string Describe(int a) {\n"
                "  std::ostringstream os;\n"
                "  return os.str();\n"
                "}\n"),
        }
        self.assertEqual(hotpath_errors(files), [])


def metric_errors(source, rel_path=os.path.join("src", "serve", "x.cc")):
    """check_metric_names reads the file itself (it needs raw string
    literals, which the shared stripper empties), so this helper lays the
    snippet out under a temp root at its rel_path."""
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(source))
        pilote_lint.check_metric_names(tmp, rel_path, errors)
    return errors


class MetricNamesTest(unittest.TestCase):
    def test_conforming_names_pass(self):
        src = """
            PILOTE_METRIC_COUNT("serve/batches", 1);
            PILOTE_METRIC_HISTOGRAM("serve/request_ms", ms);
            PILOTE_METRIC_GAUGE_SET("serve/queue_depth", depth);
            registry.GetCounter("tensor/gemm_calls");
            registry.GetCounterFamily("serve/rejected_total", "reason", {"x"});
            registry.GetHistogramFamily("serve/stage_ms", "stage", {"a"});
        """
        self.assertEqual(metric_errors(src), [])

    def test_missing_subsystem_fires(self):
        errors = metric_errors('PILOTE_METRIC_COUNT("batches", 1);\n')
        self.assertEqual(len(errors), 1)
        self.assertIn("subsystem/name", errors[0])

    def test_uppercase_and_bad_chars_fire(self):
        errors = metric_errors(
            'registry.GetGauge("Serve/QueueDepth");\n'
            'registry.GetCounter("serve/hit-rate");\n')
        self.assertEqual(len(errors), 2)

    def test_duration_suffix_on_counter_fires(self):
        errors = metric_errors('PILOTE_METRIC_COUNT("serve/wait_ms", 1);\n')
        self.assertEqual(len(errors), 1)
        self.assertIn("histogram", errors[0])

    def test_duration_suffix_on_histogram_passes(self):
        self.assertEqual(
            metric_errors('PILOTE_METRIC_HISTOGRAM("serve/wait_ms", v);\n'),
            [])

    def test_total_suffix_on_non_counter_fires(self):
        errors = metric_errors(
            'registry.GetGaugeFamily("serve/depth_total", "k", {"v"});\n')
        self.assertEqual(len(errors), 1)
        self.assertIn("_total", errors[0])

    def test_name_in_comment_is_ignored(self):
        src = """
            // Example: PILOTE_METRIC_COUNT("BadName", 1);
            /* registry.GetCounter("also_bad"); */
            PILOTE_METRIC_COUNT("serve/good_total", 1);
        """
        self.assertEqual(metric_errors(src), [])

    def test_name_on_continuation_line_is_found(self):
        src = (
            'stalls_(obs::FamilyRegistry::Global().GetCounterFamily(\n'
            '    "serve/Bad", "reason", {"a"}))\n')
        errors = metric_errors(src)
        self.assertEqual(len(errors), 1)
        self.assertIn("serve/Bad", errors[0])
        self.assertIn(":2:", errors[0])

    def test_non_literal_name_is_ignored(self):
        # The macro definition itself passes `name` through; no literal,
        # nothing to check.
        self.assertEqual(
            metric_errors("Global().GetCounter(name).Add(delta);\n"), [])


def lifetime_errors(files):
    """Writes a src/ tree and runs the lifetime stage over it."""
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        for rel, content in files.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(textwrap.dedent(content))
        pilote_lint.run_lifetime_stage(tmp, errors)
    return errors


def lifetime_src(source):
    return lifetime_errors({os.path.join("src", "a.cc"): source})


class LifetimeRefCaptureTest(unittest.TestCase):
    """check_deferred_ref_captures: by-reference lambda captures handed to
    deferred-execution sinks, and the lifetime-ok escape."""

    def test_default_ref_capture_to_thread_fires(self):
        errors = lifetime_src(
            "void F(int x) {\n"
            "  std::thread t([&] { Use(x); });\n"
            "  t.join();\n"
            "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("[lifetime:ref-capture]", errors[0])
        self.assertIn("'thread'", errors[0])

    def test_this_capture_to_submit_fires(self):
        errors = lifetime_src("void Engine::Go() {\n"
                              "  pool.Submit([this] { Tick(); });\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("`this`", errors[0])

    def test_named_ref_capture_to_queue_push_fires(self):
        errors = lifetime_src("void F() {\n"
                              "  int x = 0;\n"
                              "  queue.TryPush([&x] { Use(x); });\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("`&x`", errors[0])

    def test_bare_this_to_thread_ctor_fires(self):
        errors = lifetime_src(
            "void Engine::Start() {\n"
            "  thread_ = std::thread(&Engine::Loop, this);\n"
            "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("`this` passed to 'thread'", errors[0])

    def test_by_value_captures_pass(self):
        self.assertEqual(
            lifetime_src("void F(int x) {\n"
                         "  std::thread t([x] { Use(x); });\n"
                         "  pool.Submit([=] { Use(x); });\n"
                         "  queue.Push([*this] { Tick(); });\n"
                         "}\n"),
            [])

    def test_non_sink_call_with_ref_capture_passes(self):
        # std::sort runs the lambda before returning; not a deferred sink.
        self.assertEqual(
            lifetime_src("void F(std::vector<int>& v) {\n"
                         "  std::sort(v.begin(), v.end(),\n"
                         "            [&](int a, int b) { return a < b; });\n"
                         "}\n"),
            [])

    def test_subscript_bracket_is_not_a_capture_list(self):
        self.assertEqual(
            lifetime_src("void F() {\n"
                         "  queue.Push(items[0]);\n"
                         "  sink_.push_back(values[i]);\n"
                         "}\n"),
            [])

    def test_trailing_lifetime_ok_suppresses(self):
        self.assertEqual(
            lifetime_src(
                "void Engine::Start() {\n"
                "  // lifetime-ok: joined in Stop() before `this` dies\n"
                "  worker_ = std::thread([this] { Loop(); });\n"
                "}\n"),
            [])


class LifetimeReturnLocalTest(unittest.TestCase):
    """check_dangling_returns: references/pointers/views escaping a frame."""

    def test_ref_return_of_local_fires(self):
        errors = lifetime_src("const std::string& F() {\n"
                              "  std::string s;\n"
                              "  return s;\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("[lifetime:return-local]", errors[0])
        self.assertIn("'s'", errors[0])

    def test_ptr_return_of_local_c_str_fires(self):
        errors = lifetime_src("const char* F() {\n"
                              "  std::string msg(kText);\n"
                              "  return msg.c_str();\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("'msg'", errors[0])

    def test_ptr_return_of_temporary_buffer_fires(self):
        errors = lifetime_src(
            "const char* Name(int code) {\n"
            "  return std::to_string(code).c_str();\n"
            "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("temporary", errors[0])

    def test_string_view_of_local_fires(self):
        errors = lifetime_src("std::string_view F() {\n"
                              "  std::string s = Build();\n"
                              "  return s;\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("viewing local", errors[0])

    def test_span_of_local_tensor_fires(self):
        errors = lifetime_src("Span<float> F(const Shape& shape) {\n"
                              "  Tensor t(shape);\n"
                              "  return t.span();\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("'t'", errors[0])

    def test_byvalue_param_counts_as_local(self):
        errors = lifetime_src("const char* F(std::string s) {\n"
                              "  return s.c_str();\n"
                              "}\n")
        self.assertEqual(len(errors), 1)

    def test_static_local_and_member_returns_pass(self):
        self.assertEqual(
            lifetime_src("const std::vector<int>& Table() {\n"
                         "  static std::vector<int> table = Build();\n"
                         "  return table;\n"
                         "}\n"
                         "const std::string& C::name() { return name_; }\n"),
            [])

    def test_value_return_of_local_passes(self):
        self.assertEqual(
            lifetime_src("std::string F() {\n"
                         "  std::string s;\n"
                         "  return s;\n"
                         "}\n"),
            [])

    def test_lifetime_ok_on_return_suppresses(self):
        self.assertEqual(
            lifetime_src(
                "const char* F() {\n"
                "  std::string s;\n"
                "  // lifetime-ok: consumed before the next statement\n"
                "  return s.c_str();\n"
                "}\n"),
            [])


class LifetimeStoredViewTest(unittest.TestCase):
    """check_stored_container_views: pointers/iterators into growable
    storage persisted past the next reallocation."""

    def test_member_stores_local_vector_data_fires(self):
        errors = lifetime_src("void C::F() {\n"
                              "  std::vector<float> buf(n);\n"
                              "  ptr_ = buf.data();\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("[lifetime:stored-view]", errors[0])
        self.assertIn("ptr_", errors[0])

    def test_member_stores_member_iterator_fires(self):
        errors = lifetime_src("class C {\n"
                              "  std::vector<int> items_;\n"
                              "  void F();\n"
                              "};\n"
                              "void C::F() { cursor_ = items_.begin(); }\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("items_", errors[0])

    def test_struct_field_stores_element_address_fires(self):
        errors = lifetime_src("void C::F(Request* req) {\n"
                              "  std::vector<float> row(d);\n"
                              "  req->features = &row[0];\n"
                              "}\n")
        self.assertEqual(len(errors), 1)

    def test_local_pointer_into_growable_passes(self):
        # A frame-local pointer dies with the frame; re-derived per use.
        self.assertEqual(
            lifetime_src("void F() {\n"
                         "  std::vector<float> buf(n);\n"
                         "  const float* p = buf.data();\n"
                         "  Use(p);\n"
                         "}\n"),
            [])

    def test_unknown_container_type_passes(self):
        # `items` is not a declared growable anywhere in the file.
        self.assertEqual(
            lifetime_src("void C::F() { ptr_ = items.data(); }\n"), [])

    def test_lifetime_ok_suppresses_store(self):
        self.assertEqual(
            lifetime_src(
                "void C::F() {\n"
                "  std::vector<float> buf(n);\n"
                "  ptr_ = buf.data();  // lifetime-ok: buf outlives C\n"
                "}\n"),
            [])


class LifetimeIterInvalidationTest(unittest.TestCase):
    """check_range_for_mutation: growing/erasing a container inside a
    range-for over the same container."""

    def test_push_back_in_range_for_fires(self):
        errors = lifetime_src("void F(std::vector<int>& v) {\n"
                              "  for (int x : v) {\n"
                              "    if (x > 0) v.push_back(-x);\n"
                              "  }\n"
                              "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("[lifetime:iter-invalidation]", errors[0])

    def test_member_container_erase_fires(self):
        errors = lifetime_src(
            "void C::Prune() {\n"
            "  for (const auto& s : sessions_) {\n"
            "    if (s.expired()) sessions_.erase(s.id());\n"
            "  }\n"
            "}\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("sessions_", errors[0])

    def test_mutating_other_container_passes(self):
        self.assertEqual(
            lifetime_src("void F() {\n"
                         "  for (int x : input) {\n"
                         "    output.push_back(x);\n"
                         "    summary.counters.push_back(x);\n"
                         "  }\n"
                         "}\n"),
            [])

    def test_mutation_after_loop_passes(self):
        self.assertEqual(
            lifetime_src("void F(std::vector<int>& v) {\n"
                         "  for (int x : v) Use(x);\n"
                         "  v.push_back(1);\n"
                         "}\n"),
            [])

    def test_classic_index_loop_passes(self):
        # Not a range-for: growth with an index is the sanctioned pattern.
        self.assertEqual(
            lifetime_src("void F(std::vector<int>& v) {\n"
                         "  for (size_t i = 0; i < v.size(); ++i) {\n"
                         "    if (v[i] > 0) v.push_back(-v[i]);\n"
                         "  }\n"
                         "}\n"),
            [])

    def test_lifetime_ok_suppresses_mutation(self):
        self.assertEqual(
            lifetime_src(
                "void F(std::vector<int>& v) {\n"
                "  for (int x : v) {\n"
                "    // lifetime-ok: loop breaks right after the push\n"
                "    if (x > 0) v.push_back(-x);\n"
                "  }\n"
                "}\n"),
            [])


class SelfContainedTest(unittest.TestCase):
    def test_reports_each_failing_header_sorted_with_exit_code(self):
        compiler = os.environ.get("CXX", "c++")
        files = {
            os.path.join("src", "b", "bad.h"): "std::vector<int> v;\n",
            os.path.join("src", "a", "bad.h"): "std::string s;\n",
            os.path.join("src", "a", "ok.h"): "#include <string>\n"
                                              "std::string s;\n",
        }
        errors = []
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            pilote_lint.check_self_contained(tmp, sorted(files, reverse=True),
                                             compiler, errors)
        self.assertEqual(len(errors), 2, errors)
        self.assertTrue(errors[0].startswith(os.path.join("src", "a", "bad.h")))
        self.assertTrue(errors[1].startswith(os.path.join("src", "b", "bad.h")))
        for error in errors:
            self.assertIn("header is not self-contained", error)
            self.assertIn("(compiler exit code 1)", error)
            # The compiler's own stderr lines follow, indented.
            self.assertIn("\n    ", error)


class StageWiringTest(unittest.TestCase):
    """End-to-end: the CLI catches a violation and passes a clean tree."""

    def run_cli(self, files, stage, extra_args=()):
        with tempfile.TemporaryDirectory() as tmp:
            for rel, content in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(textwrap.dedent(content))
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "pilote_lint.py"),
                 "--root", tmp, "--stage", stage, "--no-self-contained",
                 *extra_args],
                capture_output=True, text=True)
        return proc

    def test_concurrency_stage_fails_on_raw_mutex(self):
        proc = self.run_cli(
            {os.path.join("src", "bad.cc"): "std::mutex m_;\n"},
            "concurrency")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("raw std::mutex", proc.stdout)

    def test_concurrency_stage_passes_clean_tree(self):
        clean = """
            #ifndef PILOTE_OK_H_
            #define PILOTE_OK_H_
            class C {
              mutable Mutex mutex_;
              int n_ PILOTE_GUARDED_BY(mutex_) = 0;
            };
            #endif  // PILOTE_OK_H_
        """
        proc = self.run_cli({os.path.join("src", "ok.h"): clean},
                            "concurrency")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_style_stage_still_catches_bad_guard(self):
        proc = self.run_cli(
            {os.path.join("src", "bad.h"):
             "#ifndef WRONG_H\n#define WRONG_H\n#endif\n"},
            "style")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("include guard", proc.stdout)

    def test_hotpath_stage_fails_on_hot_allocation(self):
        proc = self.run_cli(
            {os.path.join("src", "bad.cc"):
             "PILOTE_HOT_PATH void Serve();\n"
             "void Serve() { int* p = new int(3); Use(p); }\n"},
            "hotpath")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[hotpath:heap-new]", proc.stdout)

    def test_style_stage_catches_bad_metric_name(self):
        proc = self.run_cli(
            {os.path.join("src", "bad.cc"):
             'PILOTE_METRIC_COUNT("noslash", 1);\n'},
            "style")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("subsystem/name", proc.stdout)

    LIFETIME_BAD = {
        os.path.join("src", "bad.cc"):
        "void F(int x) {\n"
        "  std::thread t([&] { Use(x); });\n"
        "  t.join();\n"
        "}\n"}

    def test_lifetime_stage_fails_on_ref_capture(self):
        proc = self.run_cli(self.LIFETIME_BAD, "lifetime")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[lifetime:ref-capture]", proc.stdout)

    def test_all_stage_runs_lifetime(self):
        proc = self.run_cli(self.LIFETIME_BAD, "all")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[lifetime:ref-capture]", proc.stdout)

    def test_lifetime_stage_passes_annotated_tree(self):
        proc = self.run_cli(
            {os.path.join("src", "ok.cc"):
             "void Engine::Start() {\n"
             "  // lifetime-ok: joined in Stop()\n"
             "  worker_ = std::thread([this] { Loop(); });\n"
             "}\n"},
            "lifetime")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_json_out_writes_findings_artifact(self):
        import json
        with tempfile.TemporaryDirectory() as out_dir:
            out_path = os.path.join(out_dir, "findings.json")
            proc = self.run_cli(self.LIFETIME_BAD, "lifetime",
                                extra_args=("--json-out", out_path))
            self.assertEqual(proc.returncode, 1)
            with open(out_path, encoding="utf-8") as f:
                artifact = json.load(f)
        self.assertEqual(artifact["stage"], "lifetime")
        self.assertEqual(artifact["violations"], 1)
        self.assertEqual(len(artifact["findings"]), 1)
        self.assertEqual(artifact["findings"][0]["line"], 2)
        self.assertIn("ref-capture", artifact["findings"][0]["message"])

    def test_hotpath_stage_passes_marked_tree(self):
        proc = self.run_cli(
            {os.path.join("src", "ok.cc"):
             "PILOTE_HOT_PATH void Serve();\n"
             "void Serve() {\n"
             "  int* p = new int(3);  // hotpath-ok: test\n"
             "  Use(p);\n"
             "}\n"},
            "hotpath")
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
