"""Lint: library code must use the structured logger and span API.

Forbids, across ``src/repro/``:

* bare ``print(`` calls — diagnostic output belongs in ``repro.obs``'s
  JSON-lines logger.  The CLI's table writers are exempt: a ``print``
  that routes through the ``out=`` stream (i.e. passes a ``file=``
  argument) is the CLI's job, not logging.
* ``time.time(`` — wall-clock arithmetic belongs in the span API
  (``time.time_ns``/``perf_counter`` inside ``repro.obs`` implement it).
* ``time.sleep(`` — resilience code must use injected clocks and
  deterministic backoff (``ResilientCIClient`` advances a simulated
  clock), never real sleeps that would make runs slow and flaky.
* bare ``except:`` — swallowing ``KeyboardInterrupt``/``SystemExit``
  hides failures; catch a concrete exception type (``CIError`` for the
  cloud path) instead.

Tokenized scanning, so strings and comments (docstring examples, prose)
never trip it, and a ``file=`` argument is honored wherever the call
breaks across lines.
"""

import tokenize
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


def _code_tokens(path):
    with open(path, "rb") as handle:
        return [
            tok
            for tok in tokenize.tokenize(handle.readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]


def _call_passes_file_kwarg(tokens, open_paren_index):
    """True if the call starting at ``tokens[open_paren_index]`` ('(')
    passes a top-level ``file=`` keyword argument."""
    depth = 0
    for i in range(open_paren_index, len(tokens)):
        tok = tokens[i]
        if tok.string in "([{":
            depth += 1
        elif tok.string in ")]}":
            depth -= 1
            if depth == 0:
                return False
        elif (
            depth == 1
            and tok.type == tokenize.NAME
            and tok.string == "file"
            and i + 1 < len(tokens)
            and tokens[i + 1].string == "="
        ):
            return True
    return False


def scan_file(path, root=None):
    """All print/time.time violations in one python file."""
    root = root or SRC_ROOT.parent
    tokens = _code_tokens(path)
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    found = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME:
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        prev = tokens[i - 1] if i > 0 else None
        # bare except: — no exception type between the keyword and colon.
        if tok.string == "except" and nxt is not None and nxt.string == ":":
            found.append(
                f"{rel}:{tok.start[0]}: bare except: — catch a concrete "
                "exception type"
            )
            continue
        if nxt is None or nxt.string != "(":
            continue
        # bare print(...) — attribute access (x.print) is not "bare".
        if tok.string == "print" and (prev is None or prev.string != "."):
            if not _call_passes_file_kwarg(tokens, i + 1):
                found.append(
                    f"{rel}:{tok.start[0]}: bare print( — use repro.obs "
                    "logging or route through the CLI's out= stream"
                )
        # time.time(...) / time.sleep(...) — but not time.time_ns /
        # perf_counter.
        if (
            tok.string in ("time", "sleep")
            and prev is not None
            and prev.string == "."
            and i >= 2
            and tokens[i - 2].string == "time"
        ):
            if tok.string == "time":
                found.append(
                    f"{rel}:{tok.start[0]}: time.time( — use repro.obs.span "
                    "or time.perf_counter"
                )
            else:
                found.append(
                    f"{rel}:{tok.start[0]}: time.sleep( — use an injected "
                    "simulated clock (deterministic backoff), never a real "
                    "sleep"
                )
    return found


def test_src_has_no_bare_print_or_time_time():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(scan_file(path))
    assert not violations, "\n".join(violations)


def test_lint_catches_planted_violations(tmp_path):
    """The scanner itself must flag what it claims to flag."""
    planted = tmp_path / "bad.py"
    planted.write_text(
        '"""print(, time.time(, time.sleep( and except: in a docstring '
        'are fine."""\n'
        "import time\n"
        "print('hello')\n"
        "t = time.time()\n"
        "print('routed',\n"
        "      file=None)\n"
        "elapsed = time.time_ns()\n"
        "obj.print('method, not bare')\n"
        "time.sleep(1)\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except ValueError:\n"
        "    pass\n"
        "obj.sleep(2)\n"
    )
    hits = scan_file(planted, root=tmp_path)
    assert len(hits) == 4
    assert "bad.py:3" in hits[0] and "print" in hits[0]
    assert "bad.py:4" in hits[1] and "time.time" in hits[1]
    assert "bad.py:9" in hits[2] and "time.sleep" in hits[2]
    assert "bad.py:12" in hits[3] and "except" in hits[3]


# ----------------------------------------------------------------------
# Recurrent hot-path loops: the fused kernels own the per-timestep work
# ----------------------------------------------------------------------
# The fused LSTM/BPTT fast path (repro/nn/fused.py) exists because a
# Python-level `for t in range(steps)` over Tensor ops costs ~10 autograd
# nodes per timestep.  New timestep loops in the recurrent modules would
# silently reintroduce that cost, so every `for` *statement* in these
# files must carry a `# reference-loop:` annotation — the allowlist for
# the op-by-op ground truth kept for the fused-equivalence tests.
# (Comprehensions, e.g. in weight init, are not statements and are fine.)

import ast

RECURRENT_HOT_MODULES = ("nn/lstm.py", "nn/gru.py")
LOOP_ANNOTATION = "# reference-loop"


def scan_recurrent_loops(path, root=None):
    """Unannotated `for`/`while` statements in a recurrent hot module."""
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    source = path.read_text()
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            continue
        header = lines[node.lineno - 1]
        if LOOP_ANNOTATION not in header:
            found.append(
                f"{rel}:{node.lineno}: per-timestep Python loop in a "
                "recurrent hot path — vectorise it in repro/nn/fused.py, "
                f"or annotate the reference loop with `{LOOP_ANNOTATION}:`"
            )
    return found


def test_recurrent_modules_have_no_unannotated_loops():
    violations = []
    for name in RECURRENT_HOT_MODULES:
        violations.extend(scan_recurrent_loops(SRC_ROOT / name))
    assert not violations, "\n".join(violations)


def test_recurrent_loop_scan_catches_planted_violation(tmp_path):
    planted = tmp_path / "hot.py"
    planted.write_text(
        '"""for t in range(steps): in a docstring is fine."""\n'
        "values = [x * 2 for x in range(4)]\n"  # comprehension: allowed
        "for t in range(4):  # reference-loop: op-by-op ground truth\n"
        "    pass\n"
        "for t in range(4):\n"
        "    pass\n"
        "while t:\n"
        "    t -= 1\n"
    )
    hits = scan_recurrent_loops(planted, root=tmp_path)
    assert len(hits) == 2
    assert "hot.py:5" in hits[0]
    assert "hot.py:7" in hits[1]


# ----------------------------------------------------------------------
# Ingest modules: detect bad values, never silence them
# ----------------------------------------------------------------------
# The whole point of repro/ingest is that NaN/Inf in a feature stream is
# *signal* — it drives imputation accounting, guarantee voiding, and the
# health state machine.  Blanket float-error suppression or silent
# NaN-rewriting in those modules would launder corrupted frames into
# plausible numbers with no book entry, so:
#
# * ``np.seterr(`` is banned everywhere in src/repro — it mutates global
#   numpy state far beyond the caller (``np.errstate`` scopes it).
# * In ``src/repro/ingest/`` specifically, ``errstate(..., divide=
#   'ignore')`` / ``invalid='ignore'`` and ``np.nan_to_num(`` are banned:
#   the guard must count and impute invalid values explicitly, not
#   suppress the warnings or rewrite them wholesale.

INGEST_SUBDIR = "ingest"
_SUPPRESSION_KINDS = ("divide", "invalid")


def _call_token_slice(tokens, open_paren_index):
    """Indices of the tokens inside the call opening at ``tokens[i]``."""
    depth = 0
    for i in range(open_paren_index, len(tokens)):
        if tokens[i].string in "([{":
            depth += 1
        elif tokens[i].string in ")]}":
            depth -= 1
            if depth == 0:
                return range(open_paren_index + 1, i)
    return range(open_paren_index + 1, len(tokens))


def scan_error_suppression(path, root=None):
    """np.seterr / errstate-ignore / nan_to_num violations in one file.

    ``np.seterr(`` is flagged in any module; the errstate-ignore and
    ``nan_to_num`` rules only apply inside ``src/repro/ingest/``.
    """
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    in_ingest = INGEST_SUBDIR in path.parent.parts
    with open(path, "rb") as handle:
        tokens = [
            tok
            for tok in tokenize.tokenize(handle.readline)
            if tok.type in (tokenize.NAME, tokenize.OP, tokenize.STRING)
        ]
    found = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME:
            continue
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is None or nxt.string != "(":
            continue
        if tok.string == "seterr":
            found.append(
                f"{rel}:{tok.start[0]}: np.seterr( mutates global numpy "
                "error state — use a scoped np.errstate block"
            )
            continue
        if not in_ingest:
            continue
        if tok.string == "nan_to_num":
            found.append(
                f"{rel}:{tok.start[0]}: np.nan_to_num( in an ingest module "
                "— invalid values must be counted and imputed by the "
                "guard, not silently rewritten"
            )
            continue
        if tok.string == "errstate":
            body = _call_token_slice(tokens, i + 1)
            for j in body:
                if (
                    tokens[j].type == tokenize.NAME
                    and tokens[j].string in _SUPPRESSION_KINDS
                    and j + 2 < len(tokens)
                    and tokens[j + 1].string == "="
                    and tokens[j + 2].type == tokenize.STRING
                    and "ignore" in tokens[j + 2].string
                ):
                    found.append(
                        f"{rel}:{tok.start[0]}: errstate("
                        f"{tokens[j].string}='ignore') in an ingest module "
                        "— bad values are signal there; detect and "
                        "account for them instead"
                    )
                    break
    return found


def test_src_has_no_error_suppression():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(scan_error_suppression(path))
    assert not violations, "\n".join(violations)


def test_error_suppression_scan_catches_planted_violations(tmp_path):
    ingest_dir = tmp_path / "ingest"
    ingest_dir.mkdir()
    planted = ingest_dir / "bad.py"
    planted.write_text(
        '"""np.seterr( and nan_to_num( in a docstring are fine."""\n'
        "import numpy as np\n"
        "np.seterr(all='ignore')\n"
        "clean = np.nan_to_num(values)\n"
        "with np.errstate(divide='ignore'):\n"
        "    pass\n"
        "with np.errstate(invalid='ignore', over='warn'):\n"
        "    pass\n"
        "with np.errstate(over='ignore'):\n"  # not divide/invalid: allowed
        "    pass\n"
        "with np.errstate(divide='warn'):\n"  # not 'ignore': allowed
        "    pass\n"
    )
    hits = scan_error_suppression(planted, root=tmp_path)
    assert len(hits) == 4
    assert "bad.py:3" in hits[0] and "seterr" in hits[0]
    assert "bad.py:4" in hits[1] and "nan_to_num" in hits[1]
    assert "bad.py:5" in hits[2] and "divide" in hits[2]
    assert "bad.py:7" in hits[3] and "invalid" in hits[3]


def test_error_suppression_rules_scoped_outside_ingest(tmp_path):
    """Outside ingest/, only np.seterr is banned — errstate-ignore and
    nan_to_num are legitimate in numeric kernels."""
    planted = tmp_path / "kernel.py"
    planted.write_text(
        "import numpy as np\n"
        "with np.errstate(divide='ignore', invalid='ignore'):\n"
        "    out = np.nan_to_num(a / b)\n"
        "np.seterr(all='ignore')\n"
    )
    hits = scan_error_suppression(planted, root=tmp_path)
    assert len(hits) == 1
    assert "seterr" in hits[0]


# ----------------------------------------------------------------------
# Telemetry substrate: no reaching into registry internals outside obs
# ----------------------------------------------------------------------
# The exporters' race-freedom guarantee rests on MetricsRegistry.snapshot()
# being the only read path and inc/set_gauge/observe the only write paths.
# Code outside src/repro/obs that grabs a private attribute off the
# registry (or a metric), or flips the ``_state.enabled`` master switch
# directly instead of going through obs.configure()/obs.reset(), bypasses
# the locks and the enable gating that the sub-µs disabled-path benchmarks
# and the threaded stress test pin down.

OBS_SUBDIR = "obs"
_REGISTRY_PRIVATE = ("_metrics", "_reservoir", "_last_counter", "_last_hist")


def scan_registry_private_access(path, root=None):
    """Registry-internals violations in one file outside src/repro/obs/.

    Flags, outside ``src/repro/obs/``:

    * attribute access to a known registry/metric internal
      (``._metrics``, ``._reservoir``, ...);
    * any private attribute taken directly off ``get_registry()``
      (``get_registry()._anything``);
    * assignment to ``_state.enabled`` (use ``obs.configure``/``obs.reset``).
    """
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    if OBS_SUBDIR in path.parent.parts:
        return []
    tokens = _code_tokens(path)
    found = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME:
            continue
        prev = tokens[i - 1] if i > 0 else None
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        dotted = prev is not None and prev.string == "."
        if dotted and tok.string in _REGISTRY_PRIVATE:
            found.append(
                f"{rel}:{tok.start[0]}: .{tok.string} — registry internals "
                "are private to repro.obs; read through snapshot() and "
                "write through inc/set_gauge/observe"
            )
            continue
        # get_registry ( ) . _x
        if (
            dotted
            and tok.string.startswith("_")
            and i >= 4
            and tokens[i - 2].string == ")"
            and tokens[i - 3].string == "("
            and tokens[i - 4].string == "get_registry"
        ):
            found.append(
                f"{rel}:{tok.start[0]}: get_registry().{tok.string} — "
                "private attribute poke on the shared registry; use its "
                "public API"
            )
            continue
        # _state . enabled =   (but not ==)
        if (
            tok.string == "enabled"
            and dotted
            and i >= 2
            and tokens[i - 2].string == "_state"
            and nxt is not None
            and nxt.string == "="
        ):
            found.append(
                f"{rel}:{tok.start[0]}: _state.enabled assignment — the "
                "master switch is flipped only via obs.configure()/"
                "obs.reset()"
            )
    return found


def test_src_has_no_registry_private_access():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(scan_registry_private_access(path))
    assert not violations, "\n".join(violations)


def test_registry_access_scan_catches_planted_violations(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        '"""._metrics and _state.enabled = True in a docstring are fine."""\n'
        "from repro.obs import get_registry\n"
        "names = get_registry()._metrics\n"
        "r = hist._reservoir\n"
        "get_registry()._lock.acquire()\n"
        "_state.enabled = True\n"
        "if _state.enabled == True:\n"  # read/compare: allowed
        "    pass\n"
        "snapshot = get_registry().snapshot()\n"  # public API: allowed
        "value = get_registry().counter('c')\n"
    )
    hits = scan_registry_private_access(planted, root=tmp_path)
    assert len(hits) == 4
    assert "bad.py:3" in hits[0] and "_metrics" in hits[0]
    assert "bad.py:4" in hits[1] and "_reservoir" in hits[1]
    assert "bad.py:5" in hits[2] and "_lock" in hits[2]
    assert "bad.py:6" in hits[3] and "enabled" in hits[3]


def test_registry_access_rules_exempt_obs_itself(tmp_path):
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    planted = obs_dir / "registry.py"
    planted.write_text("names = get_registry()._metrics\n")
    assert scan_registry_private_access(planted, root=tmp_path) == []


# ----------------------------------------------------------------------
# Checkpoint writes: only the atomic writers open binary files for write
# ----------------------------------------------------------------------
# The crash-safety story (temp + fsync + atomic rename; see
# repro/core/checkpoint.py and the repro.lifecycle registry) only holds if
# every persisted artifact goes through it.  A raw ``open(path, "wb")``
# anywhere else in src/repro is a torn-write hazard: a crash mid-write
# leaves a half-file at the final path that a later load will trip over.
# Allowlisted: the atomic writers themselves (``nn/serialization.py``,
# ``core/checkpoint.py``) and ``repro/lifecycle/`` (its manifest/backup
# writer follows the same temp+fsync+rename discipline).

_BINARY_WRITE_ALLOWLIST = ("nn/serialization.py", "core/checkpoint.py")
_BINARY_WRITE_ALLOWED_SUBDIR = "lifecycle"
_BINARY_WRITE_MODES = ("wb", "w+b", "ab", "a+b", "xb", "x+b")


def _is_allowlisted_writer(path):
    if _BINARY_WRITE_ALLOWED_SUBDIR in path.parent.parts:
        return True
    return any(str(path).endswith(name) for name in _BINARY_WRITE_ALLOWLIST)


def scan_binary_writes(path, root=None):
    """Raw binary-write ``open`` calls in one file outside the writers."""
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    if _is_allowlisted_writer(path):
        return []
    with open(path, "rb") as handle:
        tokens = [
            tok
            for tok in tokenize.tokenize(handle.readline)
            if tok.type in (tokenize.NAME, tokenize.OP, tokenize.STRING)
        ]
    found = []
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME or tok.string != "open":
            continue
        prev = tokens[i - 1] if i > 0 else None
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if prev is not None and prev.string == ".":  # os.open etc. differ
            continue
        if nxt is None or nxt.string != "(":
            continue
        for j in _call_token_slice(tokens, i + 1):
            if tokens[j].type != tokenize.STRING:
                continue
            try:
                value = ast.literal_eval(tokens[j].string)
            except (SyntaxError, ValueError):
                continue
            if value in _BINARY_WRITE_MODES:
                found.append(
                    f"{rel}:{tok.start[0]}: open(..., {value!r}) — binary "
                    "artifact writes must go through the atomic "
                    "temp+fsync+rename writers (repro.core.save_checkpoint "
                    "/ the lifecycle registry), never a raw open"
                )
                break
    return found


def test_src_has_no_raw_binary_checkpoint_writes():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        violations.extend(scan_binary_writes(path))
    assert not violations, "\n".join(violations)


def test_binary_write_scan_catches_planted_violations(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        '"""open(path, "wb") in a docstring is fine."""\n'
        "fh = open(path, 'wb')\n"
        "with open(path, mode='w+b') as f:\n"
        "    pass\n"
        "with open(path, 'rb') as f:\n"  # reads: allowed
        "    pass\n"
        "with open(path, 'r+b') as f:\n"  # in-place edit, not a fresh write
        "    pass\n"
        "os.open(path, os.O_WRONLY)\n"  # different API, not flagged here
        "with open(path, 'w') as f:\n"  # text writes are not checkpoints
        "    pass\n"
    )
    hits = scan_binary_writes(planted, root=tmp_path)
    assert len(hits) == 2
    assert "bad.py:2" in hits[0] and "'wb'" in hits[0]
    assert "bad.py:3" in hits[1] and "'w+b'" in hits[1]


def test_binary_write_rules_exempt_the_atomic_writers(tmp_path):
    core_dir = tmp_path / "core"
    core_dir.mkdir()
    writer = core_dir / "checkpoint.py"
    writer.write_text("fh = open(path, 'wb')\n")
    assert scan_binary_writes(writer, root=tmp_path) == []
    lifecycle_dir = tmp_path / "lifecycle"
    lifecycle_dir.mkdir()
    registry = lifecycle_dir / "registry.py"
    registry.write_text("fh = open(path, 'wb')\n")
    assert scan_binary_writes(registry, root=tmp_path) == []


# ----------------------------------------------------------------------
# Serving loop: no private calls across objects in fleet/, cloud/,
# lifecycle/, drift/, ingest/ and the shared fault-plan base
# ----------------------------------------------------------------------
# The horizon loop has one owner, FleetMarshaller.  A serving-side module
# that calls ``other._helper(...)`` on another object is how a second
# copy of that loop grows back: the helper stays in one class while the
# loop that needs it lives in another.  Calls on ``self``/``cls``
# and dunder calls (``super().__init__``, ``object.__setattr__``) are
# fine; everything else goes through a public method.

PRIVATE_CALL_SUBDIRS = ("fleet", "cloud", "lifecycle", "drift", "ingest")
PRIVATE_CALL_FILES = ("faults.py", "cli.py")


def scan_private_calls(path, root=None):
    """Calls to ``_``-prefixed methods on a receiver other than
    ``self``/``cls`` in one file."""
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        name = node.func.attr
        if not name.startswith("_") or (
            name.startswith("__") and name.endswith("__")
        ):
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            continue
        found.append(
            (
                node.lineno,
                f"{rel}:{node.lineno}: {ast.unparse(node.func)}( — private "
                "call on another object; give the helper one owner or make "
                "it public",
            )
        )
    return [message for _, message in sorted(found)]


def test_fleet_and_cloud_make_no_private_calls_across_objects():
    violations = []
    for sub in PRIVATE_CALL_SUBDIRS:
        for path in sorted((SRC_ROOT / sub).rglob("*.py")):
            violations.extend(scan_private_calls(path))
    for name in PRIVATE_CALL_FILES:
        violations.extend(scan_private_calls(SRC_ROOT / name))
    assert not violations, "\n".join(violations)


def test_private_call_scan_catches_planted_violations(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        '"""m._decide(output) in a docstring is fine."""\n'
        "class Loop:\n"
        "    def run(self, m):\n"
        "        self._tick()\n"  # own method: allowed
        "        m._decide(output)\n"
        "        self.marshaller._engine_reset([name])\n"
        "        super().__init__()\n"  # dunder: allowed
        "        object.__setattr__(self, 'x', 1)\n"  # dunder: allowed
        "        m.decide(output)\n"  # public: allowed
        "        value = m._cache\n"  # attribute read, not a call
        "\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls._make()\n"  # own class: allowed
    )
    hits = scan_private_calls(planted, root=tmp_path)
    assert len(hits) == 2
    assert "bad.py:5" in hits[0] and "m._decide" in hits[0]
    assert "bad.py:6" in hits[1] and "self.marshaller._engine_reset" in hits[1]


# ----------------------------------------------------------------------
# No unused imports in src/repro
# ----------------------------------------------------------------------
# A name is read when its module loads it, lists it in ``__all__`` or
# names it inside a string annotation (``"FleetScheduler | str"``), or
# when another module imports it from this one (a re-export).
# ``__init__`` modules are re-export lists and are not scanned.

REPO_ROOT = Path(__file__).resolve().parents[2]
# Each directory whose modules may import from src/repro, with the root its
# module names are relative to.
IMPORTERS = (
    (SRC_ROOT, SRC_ROOT.parent),
    (REPO_ROOT / "tests", REPO_ROOT),
    (REPO_ROOT / "benchmarks", REPO_ROOT),
    (REPO_ROOT / "examples", REPO_ROOT),
)


def _module_name(path, root):
    parts = list(path.relative_to(root).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def names_imported_from(path, root):
    """``(module, name)`` for each ``from module import name`` in one file,
    relative modules resolved against ``root``."""
    module = _module_name(path, root)
    package = module.split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = node.module
        if node.level:
            base = package[: len(package) - node.level + 1]
            target = ".".join(base + ([node.module] if node.module else []))
        found.update((target, alias.name) for alias in node.names)
    return found


def _annotation_names(annotation):
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def scan_unused_imports(path, root=None, reexported=frozenset()):
    """Imported names one module never reads; ``reexported`` holds the
    ``(module, name)`` pairs other modules import from it."""
    root = root or SRC_ROOT.parent
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    module = _module_name(path, root)
    tree = ast.parse(path.read_text())
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(elt.value for elt in getattr(node.value, "elts", ()))
    return [
        f"{rel}:{line}: {name} is imported but never used; delete the import"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read and (module, name) not in reexported
    ]


def test_src_has_no_unused_imports():
    reexported = set()
    for directory, root in IMPORTERS:
        for path in directory.rglob("*.py"):
            reexported |= names_imported_from(path, root)
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name != "__init__.py":
            violations.extend(scan_unused_imports(path, reexported=reexported))
    assert not violations, "\n".join(violations)


def test_unused_import_scan_catches_planted_violations(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    planted = package / "mod.py"
    planted.write_text(
        '"""Docstrings naming Tuple or np do not count as a use."""\n'
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Dict, Tuple\n"
        "from .base import Exported, Lane, Scheduler, Shared, Unused\n"
        "from .other import helper as alias\n"
        "\n"
        '__all__ = ["Exported"]\n'
        "\n"
        'def run(lanes: "list[Lane]", scheduler: "Scheduler | str") -> Dict:\n'
        "    return os.path.join(*lanes)\n"
    )
    hits = scan_unused_imports(
        planted, root=tmp_path, reexported={("pkg.mod", "Shared")}
    )
    assert [hit.split(": ")[1] for hit in hits] == [
        "np is imported but never used; delete the import",
        "Tuple is imported but never used; delete the import",
        "Unused is imported but never used; delete the import",
        "alias is imported but never used; delete the import",
    ]
    assert hits[0].startswith("pkg/mod.py:4")
    assert names_imported_from(planted, tmp_path) >= {
        ("pkg.base", "Shared"),
        ("pkg.other", "helper"),
    }
