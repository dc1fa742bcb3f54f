"""Source model: files, findings, suppressions, repo-wide tables."""

import re
from collections import namedtuple
from pathlib import Path

from tokenizer import mark_template_brackets, strip_code, tokenize

Finding = namedtuple("Finding", ["file", "line", "rule", "message"])

# // mixcheck: allow(<rule>) -- <reason>   (reason mandatory)
SUPPRESS_RE = re.compile(
    r"//\s*mixcheck:\s*allow\(([\w-]+)\)(?:\s*--\s*(\S.*\S|\S))?")
HOT_RE = re.compile(r"//\s*mixcheck:\s*hot\b")

# Repo-wide constexpr integer constants: `constexpr ... Name = <expr>;`
# The RHS may reference other constants (Order2M = PageShift2M -
# PageShift4K); RepoTables.finalize() folds those iteratively.
CONSTEXPR_RE = re.compile(
    r"constexpr\s+[\w:<>\s]*?\b([A-Za-z_]\w*)\s*=\s*([^;{}]+);")
# enum { Name = <int>, ... } and `enum class E { A, B }` are handled by
# a looser scan of `Name = <int>` inside enum bodies.
ENUM_RE = re.compile(r"\benum\b[^{;]*\{([^}]*)\}", re.S)
ENUMERATOR_RE = re.compile(r"\b([A-Za-z_]\w*)\s*=\s*"
                           r"(0[xX][0-9a-fA-F]+|\d+)\b")

# Container declarations (members, locals, params). Maps a declared
# name to the container family so the hot-path checker can tell an
# InlineVec receiver from a std::vector one.
CONTAINER_DECL_RE = re.compile(
    r"\b(InlineVec|std::vector|std::list|std::deque|std::string\b"
    r"|std::array|std::span|std::basic_string)\s*"
    r"(?:<[^;{}()]*?>)?\s*(?:[&*]\s*)?([A-Za-z_]\w*)\s*[;={,)\[]")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"([A-Za-z_]\w*)\s*[;={(]")


class SourceFile:
    """One parsed C++ source file plus its lazy token stream."""

    def __init__(self, path, root):
        self.path = Path(path)
        self.root = Path(root)
        self.rel = str(self.path.relative_to(self.root))
        self.text = self.path.read_text(encoding="utf-8", errors="replace")
        self.stripped = strip_code(self.text)
        self.lines = self.text.splitlines()
        self.stripped_lines = self.stripped.splitlines()
        self._tokens = None
        self._template_brackets = None
        self.suppressions = {}  # line -> (rule, has_reason)
        self.hot_lines = []
        for lineno, line in enumerate(self.lines, 1):
            match = SUPPRESS_RE.search(line)
            if match:
                self.suppressions[lineno] = (match.group(1),
                                             bool(match.group(2)))
            if HOT_RE.search(line):
                self.hot_lines.append(lineno)

    @property
    def tokens(self):
        if self._tokens is None:
            self._tokens = tokenize(self.stripped)
        return self._tokens

    @property
    def template_brackets(self):
        if self._template_brackets is None:
            self._template_brackets = mark_template_brackets(self.tokens)
        return self._template_brackets

    def finding(self, line, rule, message):
        return Finding(self.rel, line, rule, message)


_NUM_SUFFIX_RE = re.compile(r"\b(0[xX][0-9a-fA-F']+|\d[\d']*)[uUlL]+")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*")


def eval_const_expr(text, constants):
    """Evaluate an integer constant expression, resolving identifiers
    via `constants` (qualified names resolve by last component).
    Returns the value or None."""
    unresolved = []

    def replace(match):
        name = match.group(0).split("::")[-1].strip()
        value = constants.get(name)
        if value is None:
            unresolved.append(name)
            return match.group(0)
        return str(value)

    expr = _IDENT_RE.sub(replace, text)
    if unresolved:
        return None
    expr = _NUM_SUFFIX_RE.sub(r"\1", expr).replace("'", "")
    # Only arithmetic/bit operators may remain; lone </> (comparisons)
    # are rejected.
    if re.search(r"[^0-9xXa-fA-F\s()+\-*/%&|^~<>]", expr):
        return None
    if re.search(r"(?<!<)<(?!<)|(?<!>)>(?!>)", expr):
        return None
    try:
        value = eval(expr, {"__builtins__": {}})  # arithmetic only
    except (SyntaxError, ZeroDivisionError, TypeError, ValueError,
            MemoryError, OverflowError):
        return None
    return value if isinstance(value, int) else None


class RepoTables:
    """Cross-file fact tables shared by the checkers."""

    def __init__(self):
        self.constants = {}   # name -> int value (constexpr + enums)
        self.containers = {}  # name -> set of container families
        self.unordered = set()
        self._pending = []    # (name, rhs text) awaiting folding

    def finalize(self):
        """Fold constexpr right-hand sides that reference other
        constants; a few passes handle chains."""
        for _ in range(5):
            remaining = []
            for name, rhs in self._pending:
                value = eval_const_expr(rhs, self.constants)
                if value is not None:
                    self.constants[name] = value
                else:
                    remaining.append((name, rhs))
            if len(remaining) == len(self._pending):
                break
            self._pending = remaining

    def ingest(self, source):
        for match in CONSTEXPR_RE.finditer(source.stripped):
            value = eval_const_expr(match.group(2), self.constants)
            if value is not None:
                self.constants[match.group(1)] = value
            else:
                self._pending.append((match.group(1), match.group(2)))
        for enum_match in ENUM_RE.finditer(source.stripped):
            for match in ENUMERATOR_RE.finditer(enum_match.group(1)):
                try:
                    self.constants[match.group(1)] = int(match.group(2), 0)
                except ValueError:
                    pass
        for match in CONTAINER_DECL_RE.finditer(source.stripped):
            family, name = match.group(1), match.group(2)
            self.containers.setdefault(name, set()).add(family)
        for match in UNORDERED_DECL_RE.finditer(source.stripped):
            self.unordered.add(match.group(1))


def apply_suppressions(source, findings):
    """Split findings into (kept, suppressed) honouring allow()
    comments on the finding's own line or the line above. A suppression
    without a reason never suppresses and raises its own finding."""
    kept, suppressed = [], []
    for finding in findings:
        hit = None
        for lineno in (finding.line, finding.line - 1):
            entry = source.suppressions.get(lineno)
            if entry and entry[0] == finding.rule and entry[1]:
                hit = lineno
                break
        (suppressed if hit else kept).append(finding)
    return kept, suppressed


def suppression_findings(source):
    """Findings for malformed suppressions (missing reason)."""
    out = []
    for lineno, (rule, has_reason) in sorted(source.suppressions.items()):
        if not has_reason:
            out.append(source.finding(
                lineno, "suppression",
                f"mixcheck: allow({rule}) has no '-- <reason>'; a "
                "written reason is mandatory"))
    return out
