"""simd checker.

SIMD intrinsics are confined to src/common/simd.hh. Its probe kernels
are plain scalar loops today (no dispatch, no kill switch), and the
header is still the only place a future wide kernel may go: there it
sits behind the same signatures, next to the first-index exactness
argument it must meet (DESIGN.md section 13). A raw
`_mm256_cmpeq_epi64` sprinkled into a design file bypasses both
the shared kernel and that review, and breaks builds for targets
without the extension. Flag intrinsic includes and raw intrinsic
calls everywhere else; `// mixcheck: allow(simd)` with a written
reason is the escape hatch.
"""

import re

RULE = "simd"
EXEMPT = "src/common/simd.hh"

# Vendor intrinsic headers (x86 per-ISA headers and the umbrella ones,
# plus ARM NEON/SVE). <intrin.h> of MSVC is intentionally included.
INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"]('
    r'[a-z0-9]*intrin\.h'
    r'|arm_neon\.h|arm_sve\.h|arm_acle\.h'
    r')[>"]')

# Raw intrinsic calls: the _mm/_mm256/_mm512 x86 families and the NEON
# v<op>q_<type> / vld1q_/vst1q_ families (call syntax required so a
# comment-stripped identifier in prose does not fire).
INTRINSIC_RE = re.compile(
    r"\b(_mm(?:256|512)?_[a-z0-9_]+"
    r"|v(?:ld|st)\d[a-z0-9_]*q?_[a-z0-9_]+"
    r"|v[a-z]+q?_[usfp](?:8|16|32|64)(?:x\d+)?"
    r")\s*\(")


def check(source):
    """SIMD intrinsics outside the sanctioned kernel header."""
    if source.rel == EXEMPT:
        return []
    out = []
    for lineno, line in enumerate(source.stripped_lines, 1):
        match = INCLUDE_RE.search(line)
        if match:
            out.append(source.finding(
                lineno, RULE,
                f"intrinsic header <{match.group(1)}> outside "
                f"{EXEMPT}; use the simd:: probe kernels"))
            continue
        match = INTRINSIC_RE.search(line)
        if match:
            out.append(source.finding(
                lineno, RULE,
                f"raw intrinsic {match.group(1)}() outside {EXEMPT}; "
                "use the simd:: probe kernels"))
    return out
