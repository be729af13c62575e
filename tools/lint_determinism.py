#!/usr/bin/env python3
"""Determinism lint: encode RAPIDNN's reproducibility contract as rules.

The repository's load-bearing invariant (PAPER.md Section 4, DESIGN.md
"Key invariants") is that composed models and the serving runtime are
bitwise reproducible: same seed, same model, same results — across
replicas, thread counts, and reruns. This lint makes the contract
greppable; it scans src/ line by line and fails on constructs that are
known determinism hazards. Rules are documented in
tools/determinism_rules.md.

Rules
-----
  rng         Wall-clock or libc randomness (rand, srand, random_device,
              std::time, time(NULL), clock(), system_clock,
              high_resolution_clock, gettimeofday, getpid-as-seed).
              All randomness must flow through common/rng.hh (seeded
              mt19937_64); all timing through steady_clock (monotonic,
              feeds only latency metrics, never model outputs).
  unordered-iter
              Iteration over std::unordered_map/unordered_set
              (range-for or begin()/end()): bucket order is
              implementation-defined, so anything serialized or
              accumulated from it is nondeterministic. Use std::map,
              a sorted vector, or sort the keys first.
  fp-reduce   Float reductions with unspecified or data-dependent
              evaluation order (std::accumulate, std::reduce,
              std::transform_reduce, OpenMP pragmas) outside the
              blessed serial-reduction helpers in src/rna/. Use a
              plain serial loop in flat index order (see
              rna/accumulation.cc and the task-pool sharding pattern).
  wall-clock  Direct clock reads (steady_clock, system_clock) inside
              src/rna/ — the simulator core must never observe host
              time, so its outputs cannot depend on it even by
              accident. Timing in rna code goes through the
              RAPIDNN_TELEMETRY_SPAN / RAPIDNN_TELEMETRY_STAGE guard
              macros (telemetry/trace.hh), which keep the clock reads
              inside the telemetry layer and cost one relaxed atomic
              load when tracing is disabled.
  raw-simd    Raw SIMD intrinsics (immintrin.h/arm_neon.h includes,
              _mm*_* calls, __m128/__m256/__m512 vector types, NEON
              vld/vst and lane types) outside src/rna/kernels/ and
              src/common/simd.hh. Vector code is only bit-exact
              against the scalar oracle when it lives behind the
              KernelOps dispatch table, where the per-variant
              equivalence suite pins it; intrinsics sprinkled
              elsewhere escape that oracle.
  naked-sync  Raw std synchronization primitives (std::mutex,
              std::shared_mutex, std::condition_variable[_any],
              std::lock_guard, std::unique_lock, std::scoped_lock,
              std::shared_lock and the <mutex>/<shared_mutex>/
              <condition_variable> includes) outside common/sync.hh.
              Locking goes through the capability-annotated wrappers
              (Mutex, CondVar, MutexLock, ...) so clang
              -Wthread-safety can check the lock discipline; a raw
              primitive is invisible to the analysis. std::atomic is
              NOT fenced — lock-free protocols are allowed but must
              document their invariant (DESIGN.md §11 escape policy).

Suppression
-----------
A finding is suppressed by a marker on the same line or the line
directly above:

    // NOLINT-DETERMINISM(rule-id): why this use is deterministic

The rule id must match the finding (or be `*`). The reason text is
mandatory — a bare marker does not suppress.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SUPPRESS_RE = re.compile(
    r"NOLINT-DETERMINISM\((?P<rules>[\w*,-]+)\):\s*\S")

# ---------------------------------------------------------------- rules

RNG_PATTERNS = [
    re.compile(r"\bs?rand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bstd::time\b"),
    re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
    re.compile(r"\bclock\s*\(\s*\)"),
    re.compile(r"\bsystem_clock\b"),
    re.compile(r"\bhigh_resolution_clock\b"),
    re.compile(r"\bgettimeofday\b"),
    re.compile(r"\bgetpid\b"),
]

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{]*?>\s+(\w+)\s*[;{=(]")
UNORDERED_INLINE_ITER_RE = re.compile(
    r"for\s*\([^;)]*:\s*[^)]*\bunordered_(?:map|set)\b")

FP_REDUCE_PATTERNS = [
    re.compile(r"\bstd::accumulate\s*\("),
    re.compile(r"\bstd::reduce\s*\("),
    re.compile(r"\bstd::transform_reduce\s*\("),
    re.compile(r"#\s*pragma\s+omp\b"),
]

# src/rna/ holds the blessed serial-reduction helpers (flat-order
# fixed-point and FP sums); the fp-reduce rule does not apply there.
FP_REDUCE_EXEMPT = ("src/rna/",)

# The wall-clock rule applies only inside the simulator core; the
# telemetry layer and runtime are where clock reads are supposed to
# live.
WALL_CLOCK_RE = re.compile(r"\b(?:steady_clock|system_clock)\b")
WALL_CLOCK_SCOPE = ("src/rna/",)

# Raw vector intrinsics must stay behind the KernelOps dispatch table,
# where tests/kernel_equivalence_test.cc pins each variant against the
# scalar oracle. simd.hh is allowed by charter (it owns the dispatch
# types) even though it deliberately contains no intrinsics today.
RAW_SIMD_PATTERNS = [
    re.compile(r"#\s*include\s*<\s*(?:immintrin|x86intrin|emmintrin|"
               r"smmintrin|tmmintrin|nmmintrin|wmmintrin|arm_neon)"
               r"\.h\s*>"),
    re.compile(r"\b_mm(?:256|512)?_\w+\s*\("),
    re.compile(r"\b__m(?:128|256|512)[id]?\b"),
    re.compile(r"\bv(?:ld|st)[1-4]q?_\w+"),
    re.compile(r"\b(?:u?int|float)(?:8|16|32|64)x(?:2|4|8|16)_t\b"),
]
RAW_SIMD_ALLOWED = ("src/rna/kernels/", "src/common/simd.hh")

# Raw std sync primitives are invisible to clang -Wthread-safety; all
# locking must flow through the annotated wrappers in common/sync.hh,
# the one file allowed to touch the std types (it implements them).
NAKED_SYNC_PATTERNS = [
    re.compile(r"#\s*include\s*<\s*(?:mutex|shared_mutex|"
               r"condition_variable)\s*>"),
    re.compile(r"\bstd::(?:recursive_|timed_|recursive_timed_|"
               r"shared_)?mutex\b"),
    re.compile(r"\bstd::condition_variable(?:_any)?\b"),
    re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|"
               r"shared_lock)\b"),
]
NAKED_SYNC_ALLOWED = ("src/common/sync.hh",)


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def suppressed(rule, line, prev_line):
    for text in (line, prev_line):
        m = SUPPRESS_RE.search(text or "")
        if m:
            rules = m.group("rules").split(",")
            if "*" in rules or rule in rules:
                return True
    return False


def lint_lines(rel_path, lines):
    """Lint one file's lines; rel_path is repo-relative POSIX style."""
    findings = []
    unordered_vars = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(1))
    iter_res = [
        re.compile(r"for\s*\([^;)]*:\s*\(?\s*(?:\w+(?:\.|->))?"
                   + re.escape(v) + r"\b")
        for v in unordered_vars
    ] + [
        re.compile(r"\b" + re.escape(v) + r"\s*(?:\.|->)\s*c?(?:begin|end)"
                   r"\s*\(")
        for v in unordered_vars
    ]

    fp_exempt = any(rel_path.startswith(p) for p in FP_REDUCE_EXEMPT)
    wall_clock_scope = any(
        rel_path.startswith(p) for p in WALL_CLOCK_SCOPE)
    raw_simd_allowed = any(
        rel_path.startswith(p) for p in RAW_SIMD_ALLOWED)
    naked_sync_allowed = any(
        rel_path.startswith(p) for p in NAKED_SYNC_ALLOWED)

    prev = None
    for lineno, line in enumerate(lines, start=1):
        for pattern in RNG_PATTERNS:
            if pattern.search(line) and not suppressed("rng", line, prev):
                findings.append(Finding(
                    rel_path, lineno, "rng",
                    f"wall-clock or unseeded randomness "
                    f"('{pattern.search(line).group(0).strip()}'); use "
                    "common/rng.hh (seeded) or steady_clock (timing)"))
        if (UNORDERED_INLINE_ITER_RE.search(line)
                or any(r.search(line) for r in iter_res)):
            if not suppressed("unordered-iter", line, prev):
                findings.append(Finding(
                    rel_path, lineno, "unordered-iter",
                    "iteration over an unordered container; bucket "
                    "order is implementation-defined — sort first or "
                    "use an ordered container"))
        if not fp_exempt:
            for pattern in FP_REDUCE_PATTERNS:
                if pattern.search(line) and not suppressed(
                        "fp-reduce", line, prev):
                    findings.append(Finding(
                        rel_path, lineno, "fp-reduce",
                        "order-sensitive reduction outside src/rna/; "
                        "use a serial flat-order loop"))
        if (wall_clock_scope and WALL_CLOCK_RE.search(line)
                and not suppressed("wall-clock", line, prev)):
            findings.append(Finding(
                rel_path, lineno, "wall-clock",
                "direct clock read in the simulator core; trace "
                "through the RAPIDNN_TELEMETRY_SPAN guard macros "
                "(telemetry/trace.hh) instead"))
        if not raw_simd_allowed:
            for pattern in RAW_SIMD_PATTERNS:
                if pattern.search(line) and not suppressed(
                        "raw-simd", line, prev):
                    findings.append(Finding(
                        rel_path, lineno, "raw-simd",
                        "raw SIMD intrinsics outside src/rna/kernels/ "
                        "(and common/simd.hh); vector code must live "
                        "behind the KernelOps dispatch table so the "
                        "per-variant equivalence suite covers it"))
                    break
        if not naked_sync_allowed:
            for pattern in NAKED_SYNC_PATTERNS:
                if pattern.search(line) and not suppressed(
                        "naked-sync", line, prev):
                    findings.append(Finding(
                        rel_path, lineno, "naked-sync",
                        "raw std sync primitive outside "
                        "common/sync.hh; use the capability-annotated "
                        "wrappers (Mutex/CondVar/MutexLock) so clang "
                        "-Wthread-safety can check the lock "
                        "discipline"))
                    break
        prev = line
    return findings


def lint_file(path):
    rel = path.relative_to(REPO_ROOT).as_posix()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        return [Finding(rel, 0, "io", "file is not valid UTF-8")]
    return lint_lines(rel, lines)


# ------------------------------------------------------------ self-test

SELF_TEST_CASES = [
    # (name, source, expected rule ids)
    ("libc rand", "int x = rand();", ["rng"]),
    ("srand seed", "srand(42);", ["rng"]),
    ("time null seed", "auto s = time(NULL);", ["rng"]),
    ("std::time", "auto s = std::time(nullptr);", ["rng", "rng"]),
    ("system clock", "auto t = std::chrono::system_clock::now();",
     ["rng"]),
    ("random device", "std::random_device rd;", ["rng"]),
    ("steady clock ok",
     "auto t = std::chrono::steady_clock::now();", []),
    ("seeded rng ok", "Rng rng(807); rng.uniform();", []),
    ("operand named grand ok", "int grand(int);", []),
    ("unordered range-for",
     "std::unordered_map<int, int> m;\nfor (auto &kv : m) use(kv);",
     ["unordered-iter"]),
    ("unordered member begin",
     "std::unordered_set<int> _seen;\nauto it = _seen.begin();",
     ["unordered-iter"]),
    ("unordered lookup ok",
     "std::unordered_map<P *, V> _velocity;\nauto &v = _velocity[p];",
     []),
    ("ordered map ok",
     "std::map<int, int> m;\nfor (auto &kv : m) use(kv);", []),
    ("std accumulate", "double s = std::accumulate(v.begin(), "
     "v.end(), 0.0);", ["fp-reduce"]),
    ("omp pragma", "#pragma omp parallel for", ["fp-reduce"]),
    # Batched execution stages per-(neuron x lane) results and reduces
    # them per lane; doing that with an order-unspecified reduction
    # would break inferBatch's bitwise-equivalence contract.
    ("batched lane reduce",
     "double s = std::reduce(laneCosts.begin(), laneCosts.end(), "
     "0.0);", ["fp-reduce"]),
    ("batched transform_reduce",
     "auto e = std::transform_reduce(slots.begin(), slots.end(), "
     "Energy{}, std::plus<>{}, laneEnergy);", ["fp-reduce"]),
    ("suppressed same line",
     "srand(1);  // NOLINT-DETERMINISM(rng): test fixture only", []),
    ("suppressed prev line",
     "// NOLINT-DETERMINISM(fp-reduce): integer accumulate\n"
     "auto n = std::accumulate(c.begin(), c.end(), 0);", []),
    ("bare marker does not suppress",
     "srand(1);  // NOLINT-DETERMINISM(rng):", ["rng"]),
    ("wrong rule does not suppress",
     "srand(1);  // NOLINT-DETERMINISM(fp-reduce): nope", ["rng"]),
    ("star suppresses",
     "srand(1);  // NOLINT-DETERMINISM(*): fixture", []),
    ("naked mutex member", "std::mutex _mutex;", ["naked-sync"]),
    ("naked shared_mutex", "mutable std::shared_mutex _rw;",
     ["naked-sync"]),
    ("naked condition_variable", "std::condition_variable _cv;",
     ["naked-sync"]),
    ("naked condition_variable_any", "std::condition_variable_any cv;",
     ["naked-sync"]),
    ("naked lock_guard",
     "std::lock_guard<std::mutex> lock(_mutex);", ["naked-sync"]),
    ("naked unique_lock",
     "std::unique_lock<std::mutex> lock(_mutex);", ["naked-sync"]),
    ("naked scoped_lock", "std::scoped_lock lock(a, b);",
     ["naked-sync"]),
    ("mutex include", "#include <mutex>", ["naked-sync"]),
    ("condition_variable include", "#include <condition_variable>",
     ["naked-sync"]),
    ("shared_mutex include", "#include <shared_mutex>",
     ["naked-sync"]),
    ("annotated wrappers ok",
     "Mutex _mutex;\nCondVar _cv;\nMutexLock lock(_mutex);", []),
    ("sync.hh include ok", '#include "common/sync.hh"', []),
    ("atomic is not fenced", "std::atomic<bool> busy{false};", []),
    ("one naked-sync finding per line",
     "std::unique_lock<std::mutex> lock(_m); std::condition_variable c;",
     ["naked-sync"]),
    ("naked-sync suppressible",
     "// NOLINT-DETERMINISM(naked-sync): FFI shim needs std type\n"
     "std::mutex raw;", []),
]


def self_test():
    failures = 0
    for name, source, expected in SELF_TEST_CASES:
        got = [f.rule for f in lint_lines("src/test.cc",
                                          source.splitlines())]
        if got != expected:
            print(f"self-test FAIL: {name}: expected {expected}, "
                  f"got {got}", file=sys.stderr)
            failures += 1
    # Path-scoped rules (the generic cases above lint src/test.cc).
    scoped_cases = [
        ("rna fp-reduce exemption", "src/rna/accumulation.cc",
         "auto s = std::accumulate(v.begin(), v.end(), 0.0);", []),
        # The blessed batched reduction: a serial flat-order loop over
        # the neuron-major (neuron x lane) cost slots inside src/rna/.
        ("rna batched serial lane reduction ok", "src/rna/chip.cc",
         "for (size_t j = 0; j < outCount; ++j)\n"
         "    runs[L].cost.weightedAccum += "
         "ws.accumCostB[j * lanes + L];", []),
        ("batched reduce outside rna flags", "src/runtime/engine.cc",
         "double sps = std::reduce(laneSps.begin(), laneSps.end(), "
         "0.0);", ["fp-reduce"]),
        ("rna steady_clock forbidden", "src/rna/chip.cc",
         "auto t = std::chrono::steady_clock::now();", ["wall-clock"]),
        ("rna system_clock hits both rules", "src/rna/chip.cc",
         "auto t = std::chrono::system_clock::now();",
         ["rng", "wall-clock"]),
        ("steady_clock fine outside rna", "src/runtime/engine.cc",
         "auto t = std::chrono::steady_clock::now();", []),
        ("rna telemetry guard macro ok", "src/rna/chip.cc",
         'RAPIDNN_TELEMETRY_SPAN("chip_infer");', []),
        ("rna wall-clock suppressible", "src/rna/chip.cc",
         "// NOLINT-DETERMINISM(wall-clock): test fixture\n"
         "auto t = std::chrono::steady_clock::now();", []),
        ("immintrin include outside kernels", "src/rna/chip.cc",
         "#include <immintrin.h>", ["raw-simd"]),
        ("mm intrinsic call outside kernels", "src/nvm/ndcam.cc",
         "auto v = _mm256_loadu_si256(p);", ["raw-simd"]),
        ("vector type outside kernels", "src/rna/workspace.hh",
         "__m512i acc;", ["raw-simd"]),
        ("neon load outside kernels", "src/rna/chip.cc",
         "uint8x16_t v = vld1q_u8(p);", ["raw-simd"]),
        ("intrinsics allowed in kernels",
         "src/rna/kernels/kernels_avx2.cc",
         "#include <immintrin.h>\n"
         "auto v = _mm256_loadu_si256(p); __m256i w;", []),
        ("simd.hh allowed by charter", "src/common/simd.hh",
         "#include <immintrin.h>", []),
        ("dispatch call site ok", "src/rna/chip.cc",
         "_kops->tally(job);", []),
        ("one finding per line max", "src/rna/chip.cc",
         "__m256i v = _mm256_setzero_si256();", ["raw-simd"]),
        ("sync.hh may use std primitives", "src/common/sync.hh",
         "#include <mutex>\nstd::mutex _m;\n"
         "std::unique_lock<std::mutex> native(mutex._m);", []),
        ("naked mutex outside sync.hh", "src/runtime/engine.cc",
         "std::mutex _mutex;", ["naked-sync"]),
        ("naked sync in rna", "src/rna/chip.cc",
         "std::lock_guard<std::mutex> lock(_m);", ["naked-sync"]),
    ]
    for name, path, source, expected in scoped_cases:
        got = [f.rule for f in lint_lines(path, source.splitlines())]
        if got != expected:
            print(f"self-test FAIL: {name}: expected {expected}, "
                  f"got {got}", file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print(f"self-test: {len(SELF_TEST_CASES) + len(scoped_cases)} "
          "cases ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="RAPIDNN determinism lint")
    parser.add_argument("--root", default=str(REPO_ROOT / "src"),
                        help="directory tree to lint (default: src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint's own test cases and exit")
    parser.add_argument("paths", nargs="*",
                        help="explicit files (default: whole --root)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.paths:
        files = [pathlib.Path(p).resolve() for p in args.paths]
    else:
        root = pathlib.Path(args.root).resolve()
        if not root.is_dir():
            print(f"lint_determinism: no such directory: {root}",
                  file=sys.stderr)
            return 2
        files = sorted(p for ext in ("*.cc", "*.hh")
                       for p in root.rglob(ext))

    findings = []
    for path in files:
        findings.extend(lint_file(path))

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint_determinism: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
