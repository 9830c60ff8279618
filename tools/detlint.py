#!/usr/bin/env python3
"""DetLint: statically enforce the determinism & phase-concurrency contract.

The replay engine's determinism contract (docs/determinism.md) has two halves:

  * RNG draws and global-counter mutation happen only on SERIALIZED paths —
    replay executes those in exact global (clock, thread) order in every
    execution mode, so the draw/mutation sequence is the same under channel
    replay and per-op replay (the oracle in tests/replay_conformance.h).
  * PARALLEL phases (channel Submit rounds and group merges, which run
    ahead of global order on the replay thread) may only touch blade- or
    thread-confined state; counters go to the engine's own report block,
    never to a system's global counter block.

Functions state which half they belong to with MIND_SERIALIZED_PATH /
MIND_PARALLEL_PHASE (src/common/thread_annotations.h). Lambdas carry the tag as
a trailing comment on their introducer line:

    auto scan_runs = [&]() {  // MIND_PARALLEL_PHASE

DetLint walks the call graph from every parallel-phase root and rejects:

  parallel-rng              an RNG draw (Rng::Next*/SendWithAck/...) reachable
                            from a parallel root
  parallel-serialized-call  any other MIND_SERIALIZED_PATH function called from
                            parallel-reachable code
  parallel-counter          mutation of a global counter receiver (counters_,
                            stats_, extra_) from parallel-reachable code that
                            is not scratch or a declared mailbox
  banned-source             nondeterminism sources anywhere in src/:
                            std::random_device, rand()/srand(), time(NULL),
                            *_clock::now(), sleep_*/usleep/nanosleep,
                            std::hash<T*>
  unordered-iteration       range-for over a std::unordered_{map,set} member
                            (hash order is not deterministic across libstdc++
                            versions/ASLR; collect+sort instead)
  untagged-contract         a definition of a phase-contract method (Access,
                            Submit, Commit, Eligible, ...)
                            that does not restate its phase tag

Escapes (put the marker comment line directly above the offending line):

    // detlint: allow(<rule-id>): <reason>     suppress through the next
                                               non-comment, non-blank line
    // detlint: mailbox(<name>)                declare <name> a per-lane /
                                               per-engine scratch mailbox for
                                               this file (exempts it from
                                               parallel-counter)

Frontends: a pure-regex scanner (always available, what CI runs) and a libclang
frontend (--mode libclang) that resolves functions and phase tags from the AST
via compile_commands.json when the clang python bindings are installed. Both
feed the same rule engine.

Usage:
    tools/detlint.py [--root DIR] [--mode auto|regex|libclang]
                     [--compile-commands build/compile_commands.json]
                     [--self-test] [-v]

Exit status: 0 = clean, 1 = violations, 2 = usage/internal error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Shared model
# --------------------------------------------------------------------------

SERIALIZED = "serialized"
PARALLEL = "parallel"

# Callee names that count as an RNG draw when reached from a parallel root.
RNG_DRAW_NAMES = {
    "Next", "NextBelow", "NextDouble", "NextBool",  # Rng / ZipfianGenerator
    "SendWithAck", "DeadTargetOutcome",             # fault-plane loss model
}

# Phase-contract methods: every definition must restate its tag (totality).
CONTRACT_NAMES = {
    # MemorySystem / OwnerDrainOps (src/baselines/memory_system.h)
    "Access", "AdvanceTo",
    "Eligible", "AccessOwned", "MinEligibleCost", "NextSerialBoundary", "Fold",
    # AccessChannel / ChannelGroup (src/core/access_channel.h)
    "Submit", "RunValid", "Commit", "ValidMask", "CommitMerged",
    # Fault plane (src/net/reliability.h)
    "SendWithAck",
}

# Receiver names treated as global counter blocks.
COUNTER_RECEIVERS = ("counters_", "stats_", "extra_")

# Receiver prefixes that mark per-lane / per-engine scratch.
SCRATCH_PREFIXES = ("scratch", "lane", "report", "local")

# Lowercase std-container/utility method names: never traversal targets (calls
# to them resolve to the standard library, not to repo functions).
STD_STOP_NAMES = {
    "erase", "push_back", "emplace_back", "pop_back", "insert", "find",
    "begin", "end", "rbegin", "rend", "size", "empty", "clear", "reserve",
    "resize", "count", "at", "front", "back", "emplace", "swap", "assign",
    "sort", "min", "max", "abs", "get", "reset", "release", "push", "pop",
    "top", "data", "c_str", "str", "substr", "append", "contains", "value",
    "has_value", "value_or", "emplace_hint", "lower_bound", "upper_bound",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast", "new",
    "delete", "throw", "assert", "defined", "decltype", "noexcept", "typeid",
    "alignas", "static_assert", "co_await", "co_return", "co_yield",
}


class FunctionInfo:
    """One function (or tagged lambda): name, phase tag, own body text."""

    __slots__ = ("name", "tag", "path", "line", "body_lines", "is_def",
                 "is_contract_site")

    def __init__(self, name, tag, path, line, body_lines, is_def,
                 is_contract_site=False):
        self.name = name
        self.tag = tag                  # SERIALIZED | PARALLEL | None
        self.path = path
        self.line = line                # 1-based line of the header
        self.body_lines = body_lines    # [(lineno, text)] own text, no nested fns
        self.is_def = is_def
        self.is_contract_site = is_contract_site  # looked like an override/decl


class FileInfo:
    """Per-file facts the rules need besides the function records."""

    def __init__(self, path):
        self.path = path
        self.lines = []              # raw source lines
        self.code_lines = []         # comment/string-stripped, same indexing
        self.allows = {}             # lineno -> set(rule-ids) suppressed there
        self.mailboxes = set()       # names declared scratch mailboxes
        self.unordered_names = set() # member/var names of unordered containers


class Finding:
    __slots__ = ("rule", "path", "line", "message")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# --------------------------------------------------------------------------
# Source preprocessing (shared by both frontends)
# --------------------------------------------------------------------------

def strip_comments_and_strings(lines):
    """Blank out comments, string and char literals, preserving line/column
    layout so line numbers and brace positions survive."""
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if c == "*" and i + 1 < n and raw[i + 1] == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif c == "/" and i + 1 < n and raw[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            elif c == "/" and i + 1 < n and raw[i + 1] == "*":
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif raw[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


ALLOW_RE = re.compile(r"//\s*detlint:\s*allow\(([\w-]+)\)")
MAILBOX_RE = re.compile(r"//\s*detlint:\s*mailbox\((\w+)\)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//.*)?$")


def collect_markers(fi):
    """Resolve allow/mailbox markers. An allow marker suppresses its rule for
    every line from the marker through the next non-comment, non-blank line."""
    pending = {}  # rule -> marker line
    for idx, raw in enumerate(fi.lines):
        lineno = idx + 1
        m = MAILBOX_RE.search(raw)
        if m:
            fi.mailboxes.add(m.group(1))
        for m in ALLOW_RE.finditer(raw):
            pending.setdefault(m.group(1), lineno)
        if pending:
            for rule in pending:
                fi.allows.setdefault(lineno, set()).add(rule)
            if not COMMENT_ONLY_RE.match(raw):
                pending = {}


def allowed(fi, rule, lineno):
    return rule in fi.allows.get(lineno, set())


UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*?>\s*(\w+)\s*[;{=]", re.S)
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set)\b")


def collect_unordered_names(fi, header_code=None):
    """Names of unordered-container members/vars declared in this file (and in
    its paired header, so .cc loops over header members are caught)."""
    for code in filter(None, ["\n".join(fi.code_lines), header_code]):
        for m in UNORDERED_DECL_RE.finditer(code):
            fi.unordered_names.add(m.group(1))
        aliases = UNORDERED_ALIAS_RE.findall(code)
        for alias in aliases:
            for m in re.finditer(r"\b%s\b\s*[&*]?\s*(\w+)\s*[,;)&]" % alias,
                                 code):
                if m.group(1) not in ("const",):
                    fi.unordered_names.add(m.group(1))


# --------------------------------------------------------------------------
# Regex frontend: function discovery
# --------------------------------------------------------------------------

TAG_TOKEN_RE = re.compile(r"\bMIND_(SERIALIZED_PATH|PARALLEL_PHASE)\b")
LAMBDA_TAG_RE = re.compile(
    r"\bauto\s+(\w+)\s*=\s*\[.*//\s*MIND_(SERIALIZED_PATH|PARALLEL_PHASE)\b")
LAMBDA_HEAD_RE = re.compile(r"\bauto\s+(\w+)\s*=\s*\[")
HEADER_NAME_RE = re.compile(r"([A-Za-z_~]\w*)\s*\($")
CONTROL_HEAD_RE = re.compile(
    r"\b(if|for|while|switch|catch|do|else)\s*\($|^\s*(do|else|try)\s*$")


def _header_tag(header_code, header_raw):
    m = TAG_TOKEN_RE.search(header_code)
    if m:
        return SERIALIZED if m.group(1) == "SERIALIZED_PATH" else PARALLEL
    m = re.search(r"//\s*MIND_(SERIALIZED_PATH|PARALLEL_PHASE)\b", header_raw)
    if m:
        return SERIALIZED if m.group(1) == "SERIALIZED_PATH" else PARALLEL
    return None


def _match_paren(code, start):
    """Index just past the ')' matching the '(' at `start` (or -1)."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


ANON_LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*(?:\(|mutable|->|$)")


def _function_name_from_header(header):
    """The identifier owning the first argument list in a function header."""
    header = header.strip()
    lam = LAMBDA_HEAD_RE.search(header)
    if lam:
        return lam.group(1)
    if ANON_LAMBDA_RE.search(header):
        return None  # anonymous lambda argument: body belongs to the caller
    i = header.find("(")
    while i > 0:
        m = re.search(r"([A-Za-z_~][\w:]*)\s*$", header[:i])
        if m:
            name = m.group(1).split("::")[-1]
            before = header[:m.start()].rstrip()
            if before.endswith(".") or before.endswith("->"):
                return None  # member call expression, not a definition
            if name not in CPP_KEYWORDS:
                return name
        # Skip attribute/macro parens like MIND_REQUIRES(mu) and look further.
        j = _match_paren(header, i)
        if j < 0:
            return None
        i = header.find("(", j)
    return None


def scan_functions_regex(fi):
    """Find function definitions + tagged declarations with a brace matcher
    over comment-stripped source. Nested lambdas become their own records and
    their lines are excluded from the enclosing function's own text."""
    functions = []
    code = fi.code_lines
    nlines = len(code)

    # line -> (start-col for statement) tracking via a linear walk.
    stmt_start = (0, 0)  # (line_idx, col)
    depth_stack = []     # open records: [func_record, body_end_marker]
    open_funcs = []      # stack of (FunctionInfo, set_of_nested_line_ranges)
    brace_depth = 0
    func_depth = []      # brace depth at which each open function's body began

    # Tagged declarations (no body): scan separately, simple and line-local.
    decl_re = re.compile(
        r"MIND_(SERIALIZED_PATH|PARALLEL_PHASE)\b([^;{]*);")
    flat = "\n".join(code)
    for m in decl_re.finditer(flat):
        line = flat.count("\n", 0, m.start()) + 1
        name = _function_name_from_header(
            "MIND_X " + m.group(2).replace("\n", " "))
        if name:
            tag = SERIALIZED if m.group(1) == "SERIALIZED_PATH" else PARALLEL
            functions.append(FunctionInfo(
                name, tag, fi.path, line, [], is_def=False,
                is_contract_site="override" in m.group(2)))

    i = 0  # char walk over `flat` for brace matching
    line_of = []
    ln = 1
    for ch in flat:
        line_of.append(ln)
        if ch == "\n":
            ln += 1

    last_stmt_break = 0
    paren_depth = 0
    k = 0
    while k < len(flat):
        ch = flat[k]
        if ch == "(":
            paren_depth += 1
        elif ch == ")":
            paren_depth = max(0, paren_depth - 1)
        elif ch == ";":
            if paren_depth == 0:
                last_stmt_break = k + 1
            k += 1
            continue
        if ch == "{":
            header = flat[last_stmt_break:k]
            header_line = line_of[min(last_stmt_break, len(flat) - 1)]
            # find first non-space char of header for a better line anchor
            hm = re.search(r"\S", header)
            if hm:
                header_line = line_of[last_stmt_break + hm.start()]
            name = None
            hstrip = header.strip()
            is_control = bool(CONTROL_HEAD_RE.search(hstrip)) or \
                hstrip.endswith("=") or hstrip == ""
            looks_func = "(" in header and not is_control and \
                not re.search(r"\b(struct|class|enum|union|namespace)\s+\w*\s*"
                              r"(final)?\s*(:[^:]|$)", hstrip) and \
                ")" in header.replace("\n", "")
            if looks_func:
                name = _function_name_from_header(header)
            if name in STD_STOP_NAMES:
                name = None
            if name and name not in CPP_KEYWORDS:
                raw_header = "\n".join(
                    fi.lines[line_of[last_stmt_break] - 1:
                             line_of[k] if line_of[k] < nlines else nlines])
                tag = _header_tag(header, raw_header)
                rec = FunctionInfo(
                    name, tag, fi.path, header_line, [], is_def=True,
                    is_contract_site="override" in header)
                functions.append(rec)
                open_funcs.append(rec)
                func_depth.append(brace_depth)
            brace_depth += 1
            last_stmt_break = k + 1
            paren_depth = 0
        elif ch == "}":
            brace_depth -= 1
            if open_funcs and brace_depth == func_depth[-1]:
                open_funcs.pop()
                func_depth.pop()
            last_stmt_break = k + 1
            paren_depth = 0
        elif ch == "\n":
            pass
        k += 1
        # Attribute own text: assign each line to the innermost open function.
    # Second pass: assign lines to innermost function via re-walk.
    _assign_own_lines(fi, functions)
    return functions


def _assign_own_lines(fi, functions):
    """Re-walk braces to attribute each code line to its innermost function."""
    flat = "\n".join(fi.code_lines)
    defs = [f for f in functions if f.is_def]
    defs_by_line = {}
    for f in defs:
        defs_by_line.setdefault(f.line, []).append(f)

    brace_depth = 0
    open_funcs = []
    func_depth = []
    last_stmt_break = 0
    ln = 1
    line_of = []
    for ch in flat:
        line_of.append(ln)
        if ch == "\n":
            ln += 1
    owner_of_line = {}

    paren_depth = 0
    k = 0
    while k < len(flat):
        ch = flat[k]
        if ch == "(":
            paren_depth += 1
        elif ch == ")":
            paren_depth = max(0, paren_depth - 1)
        if ch == "{":
            header = flat[last_stmt_break:k]
            hm = re.search(r"\S", header)
            header_line = line_of[last_stmt_break + hm.start()] if hm else \
                line_of[min(k, len(flat) - 1)]
            cands = defs_by_line.get(header_line, [])
            rec = cands.pop(0) if cands else None
            if rec is not None:
                open_funcs.append(rec)
                func_depth.append(brace_depth)
            brace_depth += 1
            last_stmt_break = k + 1
            paren_depth = 0
        elif ch == "}":
            brace_depth -= 1
            if open_funcs and brace_depth == func_depth[-1]:
                # Catch one-line bodies closed before the line's newline.
                owner_of_line.setdefault(line_of[k], open_funcs[-1])
                open_funcs.pop()
                func_depth.pop()
            last_stmt_break = k + 1
            paren_depth = 0
        elif ch == ";":
            if paren_depth == 0:
                last_stmt_break = k + 1
        elif ch == "\n":
            if open_funcs:
                owner_of_line.setdefault(line_of[k], open_funcs[-1])
        k += 1

    for idx, text in enumerate(fi.code_lines):
        lineno = idx + 1
        rec = owner_of_line.get(lineno)
        if rec is not None:
            rec.body_lines.append((lineno, text))


# --------------------------------------------------------------------------
# libclang frontend (optional)
# --------------------------------------------------------------------------

def scan_functions_libclang(fi, index, compile_args):
    """AST-accurate function discovery: names from cursors, phase tags from
    [[clang::annotate]] attributes. Body text still comes from the stripped
    source slice (the mutation/call regexes are source-level either way)."""
    import clang.cindex as ci
    tu = index.parse(fi.path, args=compile_args)
    functions = []
    fn_kinds = (ci.CursorKind.CXX_METHOD, ci.CursorKind.FUNCTION_DECL,
                ci.CursorKind.CONSTRUCTOR, ci.CursorKind.LAMBDA_EXPR)

    def annotate_tag(cur):
        for ch in cur.get_children():
            if ch.kind == ci.CursorKind.ANNOTATE_ATTR:
                if ch.spelling == "mind::parallel_phase":
                    return PARALLEL
                if ch.spelling == "mind::serialized_path":
                    return SERIALIZED
        return None

    def visit(cur):
        for ch in cur.get_children():
            if ch.location.file and ch.location.file.name != fi.path:
                continue
            if ch.kind in fn_kinds:
                ext = ch.extent
                start, end = ext.start.line, ext.end.line
                body = [(n, fi.code_lines[n - 1])
                        for n in range(start, min(end, len(fi.code_lines)) + 1)]
                functions.append(FunctionInfo(
                    ch.spelling or "<lambda>", annotate_tag(ch), fi.path,
                    start, body, is_def=ch.is_definition(),
                    is_contract_site=True))
            visit(ch)

    visit(tu.cursor)
    return functions


# --------------------------------------------------------------------------
# Rule engine
# --------------------------------------------------------------------------

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
BANNED_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::time\b|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "wall-clock time()"),
    (re.compile(r"\b\w*_clock::now\s*\("), "std::chrono clock now()"),
    (re.compile(r"\b(?:sleep_for|sleep_until|usleep|nanosleep)\s*\("),
     "sleeping primitive"),
    (re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"), "std::hash over a pointer"),
]
COUNTER_MUT_RE = re.compile(
    r"((?:\w+\s*(?:\.|->)\s*)*)(%s)\s*(?:\.|->)\s*\w+\s*"
    r"(\+\+|--|\+=|-=|\|=|&=|=[^=])" % "|".join(COUNTER_RECEIVERS))
COUNTER_INCR_RE = re.compile(
    r"(?:\+\+|--)\s*((?:\w+\s*(?:\.|->)\s*)*)(%s)\b"
    % "|".join(COUNTER_RECEIVERS))
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*([^\)]+)\)")


def _scratch_receiver(prefix):
    first = re.split(r"\.|->", prefix.strip())[0].strip() if prefix else ""
    return any(first == p or first.startswith(p + "_") or first == p + "_"
               for p in SCRATCH_PREFIXES)


class RuleEngine:
    def __init__(self, files, functions, verbose=False):
        self.files = {f.path: f for f in files}
        self.functions = functions
        self.by_name = {}
        for fn in functions:
            self.by_name.setdefault(fn.name, []).append(fn)
        self.verbose = verbose
        self.findings = []

    def _tag_of(self, name):
        """Merged tag for a bare name across all decls/defs (None if unknown
        or conflicting-with-parallel: parallel wins so traversal continues)."""
        tags = {f.tag for f in self.by_name.get(name, []) if f.tag}
        if not tags:
            return None
        if len(tags) == 1:
            return tags.pop()
        # Mixed tags (e.g. a name defined serialized in one system, parallel
        # in another): treat as parallel so traversal keeps checking bodies.
        return PARALLEL

    def report(self, rule, path, line, msg):
        fi = self.files.get(path)
        if fi is not None and allowed(fi, rule, line):
            return
        self.findings.append(Finding(rule, path, line, msg))

    # --- R: banned-source + unordered-iteration (file-wide) ---------------

    def run_filewide(self):
        for fi in self.files.values():
            for idx, text in enumerate(fi.code_lines):
                lineno = idx + 1
                for pat, what in BANNED_PATTERNS:
                    if pat.search(text):
                        self.report(
                            "banned-source", fi.path, lineno,
                            "nondeterminism source: %s (replay must be "
                            "bit-identical across execution modes; derive from "
                            "SimTime or the seeded serialized-path Rng)"
                            % what)
                for m in RANGE_FOR_RE.finditer(text):
                    expr = m.group(1).strip()
                    tail = re.split(r"\.|->", expr)[-1].strip()
                    tail = tail.split("(")[0].strip()
                    if tail in fi.unordered_names or \
                            expr in fi.unordered_names:
                        self.report(
                            "unordered-iteration", fi.path, lineno,
                            "range-for over unordered container '%s': hash "
                            "order is not deterministic; collect + sort, or "
                            "mark '// detlint: allow(unordered-iteration)' "
                            "with the order-invariance argument" % tail)

    # --- R: untagged-contract ---------------------------------------------

    def run_contract(self):
        tagged_names = set()
        for fn in self.functions:
            if fn.tag:
                tagged_names.add(fn.name)
        for fn in self.functions:
            if fn.name in CONTRACT_NAMES and fn.is_contract_site and \
                    fn.tag is None:
                self.report(
                    "untagged-contract", fn.path, fn.line,
                    "'%s' implements a phase-contract method but does not "
                    "restate MIND_SERIALIZED_PATH / MIND_PARALLEL_PHASE "
                    "(contract totality: every override declares its phase)"
                    % fn.name)

    # --- R: parallel closure rules ----------------------------------------

    def run_parallel(self):
        roots = [f for f in self.functions if f.tag == PARALLEL and f.is_def]
        # Closure over names: parallel roots plus every untagged callee.
        closure = {}
        work = []
        for r in roots:
            closure.setdefault(r.name, []).append(r)
            work.append(r)
        visited_names = {r.name for r in roots}
        while work:
            fn = work.pop()
            for lineno, text in fn.body_lines:
                for m in CALL_RE.finditer(text):
                    callee = m.group(1)
                    if callee in CPP_KEYWORDS or callee == fn.name or \
                            callee in STD_STOP_NAMES:
                        continue
                    tag = self._tag_of(callee)
                    if tag == SERIALIZED:
                        rule = ("parallel-rng" if callee in RNG_DRAW_NAMES
                                else "parallel-serialized-call")
                        what = ("draws RNG" if rule == "parallel-rng"
                                else "is a serialized-path function")
                        self.report(
                            rule, fn.path, lineno,
                            "'%s' (parallel-phase-reachable via '%s') calls "
                            "'%s', which %s; route it through the serialized "
                            "drain or allow-mark with the confinement "
                            "argument" % (fn.name, fn.name, callee, what))
                    elif callee in RNG_DRAW_NAMES:
                        # Unresolved draw-looking callee: still a violation.
                        self.report(
                            "parallel-rng", fn.path, lineno,
                            "'%s' calls RNG draw '%s' from a parallel phase; "
                            "draws are serialized-path only" %
                            (fn.name, callee))
                    elif tag is None and callee in self.by_name and \
                            callee not in visited_names:
                        visited_names.add(callee)
                        for rec in self.by_name[callee]:
                            if rec.is_def:
                                work.append(rec)
                # Counter mutation inside parallel-reachable code.
                fi = self.files.get(fn.path)
                for m in list(COUNTER_MUT_RE.finditer(text)) + \
                        list(COUNTER_INCR_RE.finditer(text)):
                    prefix, recv = m.group(1) or "", m.group(2)
                    if _scratch_receiver(prefix):
                        continue
                    if fi is not None and recv in fi.mailboxes:
                        continue
                    self.report(
                        "parallel-counter", fn.path, lineno,
                        "'%s' (parallel-phase-reachable) mutates global "
                        "counter receiver '%s%s'; parallel phases must write "
                        "the engine's report block or per-lane scratch and "
                        "leave global counters to the serialized drain (or "
                        "declare "
                        "'// detlint: mailbox(%s)')" %
                        (fn.name, prefix, recv, recv))

    def run_all(self):
        self.run_filewide()
        self.run_contract()
        self.run_parallel()
        return self.findings


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def load_file(path):
    fi = FileInfo(path)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        fi.lines = f.read().splitlines()
    fi.code_lines = strip_comments_and_strings(fi.lines)
    collect_markers(fi)
    return fi


def paired_header_code(path, all_paths):
    if not path.endswith(".cc"):
        return None
    header = path[:-3] + ".h"
    if header in all_paths:
        with open(header, "r", encoding="utf-8", errors="replace") as f:
            return "\n".join(strip_comments_and_strings(f.read().splitlines()))
    return None


def lint_paths(paths, mode="regex", compile_commands=None, verbose=False):
    files, functions = [], []
    all_paths = set(paths)

    index = None
    compile_args_for = {}
    if mode == "libclang":
        import clang.cindex as ci
        index = ci.Index.create()
        if compile_commands:
            db = ci.CompilationDatabase.fromDirectory(
                os.path.dirname(os.path.abspath(compile_commands)))
            for p in paths:
                cmds = db.getCompileCommands(p)
                if cmds:
                    args = [a for a in list(cmds[0].arguments)[1:-1]
                            if a not in ("-c", "-o")]
                    compile_args_for[p] = args

    for path in sorted(paths):
        fi = load_file(path)
        collect_unordered_names(fi, paired_header_code(path, all_paths))
        files.append(fi)
        # The annotation header defines the macros; its text would read as
        # tagged declarations. Markers/banned rules still apply to it.
        if path.endswith("thread_annotations.h"):
            continue
        if mode == "libclang":
            functions.extend(scan_functions_libclang(
                fi, index, compile_args_for.get(path, ["-std=c++20"])))
        else:
            functions.extend(scan_functions_regex(fi))

    engine = RuleEngine(files, functions, verbose=verbose)
    findings = engine.run_all()
    if verbose:
        tagged = sum(1 for f in functions if f.tag)
        sys.stderr.write(
            "detlint: %d files, %d functions (%d tagged), %d findings\n"
            % (len(files), len(functions), tagged, len(findings)))
    return findings


def source_files(root):
    out = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in filenames:
            if fn.endswith((".h", ".cc")):
                out.append(os.path.join(dirpath, fn))
    return out


# --------------------------------------------------------------------------
# Self-test over tests/detlint_fixtures/
# --------------------------------------------------------------------------

EXPECT_RE = re.compile(r"//\s*detlint-expect:\s*([\w-]+)")


def self_test(root, mode, verbose):
    fixture_dir = os.path.join(root, "tests", "detlint_fixtures")
    fixtures = sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.endswith(".cc"))
    if not fixtures:
        print("detlint self-test: no fixtures found in %s" % fixture_dir)
        return 2
    failures = 0
    for path in fixtures:
        with open(path, "r", encoding="utf-8") as f:
            head = f.read(4096)
        m = EXPECT_RE.search(head)
        if not m:
            print("FAIL %s: missing '// detlint-expect:' header" % path)
            failures += 1
            continue
        expect = m.group(1)
        findings = lint_paths([path], mode=mode, verbose=False)
        rules = sorted({f.rule for f in findings})
        if expect == "clean":
            ok = not findings
            detail = "; ".join(str(f) for f in findings)
        else:
            ok = expect in rules
            detail = "got %s" % (rules or "no findings")
        status = "ok  " if ok else "FAIL"
        if not ok:
            failures += 1
        if verbose or not ok:
            print("%s %s (expect %s%s)" %
                  (status, os.path.basename(path), expect,
                   ", %s" % detail if not ok else ""))
    print("detlint self-test: %d/%d fixtures pass" %
          (len(fixtures) - failures, len(fixtures)))
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--mode", choices=("auto", "regex", "libclang"),
                    default="auto")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for the libclang frontend")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="lint only these files (default: all of src/)")
    args = ap.parse_args(argv)

    mode = args.mode
    if mode in ("auto", "libclang"):
        try:
            import clang.cindex  # noqa: F401
            mode = "libclang"
        except ImportError:
            if mode == "libclang":
                print("detlint: --mode libclang requested but the clang "
                      "python bindings are not importable", file=sys.stderr)
                return 2
            mode = "regex"

    if args.self_test:
        return self_test(args.root, mode, args.verbose)

    paths = args.files or source_files(args.root)
    if not paths:
        print("detlint: nothing to lint under %s/src" % args.root,
              file=sys.stderr)
        return 2
    cc = args.compile_commands
    if mode == "libclang" and cc is None:
        cand = os.path.join(args.root, "build", "compile_commands.json")
        cc = cand if os.path.exists(cand) else None
    findings = lint_paths(paths, mode=mode, compile_commands=cc,
                          verbose=args.verbose)
    for f in findings:
        print(f)
    if findings:
        print("detlint: %d violation(s) [%s frontend]" %
              (len(findings), mode), file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
