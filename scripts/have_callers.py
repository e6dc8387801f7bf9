#!/usr/bin/env python3
"""Caller lint: code that no front door reaches is wired in or deleted.

    scripts/have_callers.py headers|functions [repo-root]

headers:   every src/**/*.hpp must be #included by some file under src/
           (other than itself), tools/, examples/ or perfbench/.
functions: every namespace-scope function declared in a src/**/*.hpp
           outside a `detail` namespace must be named somewhere other than
           its own declarations and definitions, in a file under src/,
           tools/, examples/, perfbench/ or bench/ (bench/ counts here
           because its binaries reproduce the paper's figures and are
           what check.sh gates). Prints how many functions it checked
           and fails when that is 0, so a scanner that matches nothing
           cannot pass.

A header or function only tests reach is code no front door runs: wire it
into one or delete it. There is no exemption list. Matching is by name
(overloads count as one function, member accesses `.f`/`->f` are not
uses) and operator overloads are not checked, since they are used by
syntax rather than by name. Exits 1 and names every orphan; registered
with ctest as lint.headers_have_callers and lint.functions_have_callers.
"""
import re
import sys
from pathlib import Path

HEADER_DIRS = ("src", "tools", "examples", "perfbench")
FUNCTION_DIRS = HEADER_DIRS + ("bench",)
SOURCE_SUFFIXES = (".hpp", ".cpp")

# Keywords that take a parenthesised operand in a declaration head; the
# identifier before a `(` is the declarator name unless it is one of these.
PAREN_KEYWORDS = {"alignas", "alignof", "decltype", "noexcept", "requires",
                  "sizeof", "static_assert", "typeid", "__attribute__",
                  "explicit", "void"}
CLASS_KEYS = {"class", "struct", "union", "enum"}
TOKEN = re.compile(r"[A-Za-z_]\w*|\d[\w.']*|::|->|\S")


def sources(root, dirs):
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                yield p


# Comments, raw/plain string and char literals, and preprocessor lines;
# a `'` after a word character is a digit separator, not a literal.
BLANKED = re.compile(r"""//[^\n]*|/\*.*?\*/|(?<!\w)R"(?P<d>[^(\s]*)\(.*?\)(?P=d)"
                     |"(?:\\.|[^\\"\n])*"|(?<!\w)'(?:\\.|[^\\'\n])*'
                     |^[ \t]*\#(?:\\\n|[^\n])*""", re.S | re.M | re.X)


def strip(text):
    """Blanks everything BLANKED matches, keeping offsets and newlines."""
    return BLANKED.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), text)


def skip_balanced(toks, i):
    """toks[i] opens a (), [] or {} group; returns the index past its close."""
    close = {"(": ")", "[": "]", "{": "}"}[toks[i][0]]
    opener, depth = toks[i][0], 0
    while i < len(toks):
        t = toks[i][0]
        depth += (t == opener) - (t == close)
        i += 1
        if depth == 0:
            break
    return i


class Scanner:
    """Finds the namespace-scope functions of one stripped file: for each,
    its name, whether it was declared qualified (`ns::f`, `C::f`) or inside
    a `detail` namespace, and the text span of the declaration or
    definition. Class, function and initializer bodies are skipped whole."""

    def __init__(self, text):
        self.toks = [(m.group(), m.start()) for m in TOKEN.finditer(text)]
        self.found = []  # (name, qualified_or_operator, in_detail, start, end)

    def scan(self):
        self.scope(0, [])
        return self.found

    def scope(self, i, ns):
        toks = self.toks
        while i < len(toks):
            t = toks[i][0]
            if t == "}":
                return i + 1
            if t == ";":
                i += 1
            elif t == "inline" and i + 1 < len(toks) and toks[i + 1][0] == "namespace":
                i += 1
            elif t == "namespace":
                j = i + 1
                while j < len(toks) and toks[j][0] not in "{;=":
                    j += 1
                if j < len(toks) and toks[j][0] == "{":
                    names = "".join(x for x, _ in toks[i + 1:j]).split("::")
                    i = self.scope(j + 1, ns + names)
                else:
                    i = self.to_semicolon(j)
            elif t == "extern" and i + 1 < len(toks) and toks[i + 1][0] == "{":
                i = self.scope(i + 2, ns)
            else:
                i = self.declaration(i, ns)
        return i

    def to_semicolon(self, i):
        toks = self.toks
        while i < len(toks) and toks[i][0] not in ";}":
            i = skip_balanced(toks, i) if toks[i][0] in "([{" else i + 1
        return i + 1 if i < len(toks) and toks[i][0] == ";" else i

    def declaration(self, i, ns):
        toks = self.toks
        start, angle, prev, prev2 = i, 0, None, None
        is_type = False
        while i < len(toks):
            t = toks[i][0]
            if t == "}":
                return i
            if angle == 0 and t == ";":
                return i + 1
            if angle == 0 and t == "=":
                return self.to_semicolon(i)
            if t in CLASS_KEYS and angle == 0:
                is_type = True
            if t == "operator" and not is_type:
                i = self.function(start, i, "operator", True, ns)
                return i
            if t == "<" and (angle or prev == "template" or
                             (prev and (prev[0].isalpha() or prev[0] == "_"))):
                angle += 1
            elif t == ">" and angle:
                angle -= 1
            elif t in "([{":
                if (t == "(" and angle == 0 and not is_type and prev and
                        (prev[0].isalpha() or prev[0] == "_") and
                        prev not in PAREN_KEYWORDS):
                    return self.function(start, i, prev, prev2 == "::", ns)
                i = skip_balanced(toks, i)
                prev2, prev = prev, toks[i - 1][0]
                continue
            prev2, prev = prev, t
            i += 1
        return i

    def function(self, start, i, name, qualified, ns):
        """toks[i] is at or before the parameter list of `name`; consumes
        through the closing `;` or body."""
        toks = self.toks
        if name == "operator":  # skip the operator's own symbol, e.g. `()`
            i += 1
            if toks[i][0] == "(":
                i = skip_balanced(toks, i)
            while toks[i][0] != "(":
                i += 1
        i = skip_balanced(toks, i)
        init_list = False
        while i < len(toks):
            t = toks[i][0]
            if t == ";":
                i += 1
                break
            if t == "=":
                i = self.to_semicolon(i)
                break
            if t == ":":
                init_list = True
            if t == "{" and not (init_list and (toks[i - 1][0][0].isalnum() or
                                                toks[i - 1][0] in "_>")):
                i = skip_balanced(toks, i)
                break
            i = skip_balanced(toks, i) if t in "([{" else i + 1
        end = toks[i - 1][1] + 1
        self.found.append((name, qualified or name == "operator",
                           "detail" in ns, toks[start][1], end))
        return i


def headers(root):
    status = 0
    texts = {p: p.read_text() for p in sources(root, HEADER_DIRS)}
    for header in sorted((root / "src").rglob("*.hpp")):
        rel = header.relative_to(root / "src").as_posix()
        needle = f'#include "{rel}"'
        if not any(needle in text for p, text in texts.items() if p != header):
            print(f"orphan header: {header.relative_to(root).as_posix()} "
                  "(nothing under src/, tools/, examples/ or perfbench/ "
                  "includes it)")
            status = 1
    return status


def functions(root):
    raw = {p: p.read_text() for p in sources(root, FUNCTION_DIRS)}
    stripped = {p: strip(text) for p, text in raw.items()}
    # A function-like macro invoked at namespace scope reads as a function.
    macros = {m for text in raw.values()
              for m in re.findall(r"^\s*#\s*define\s+(\w+)\(", text, re.M)}
    own = {}       # name -> {path: [(start, end)]} of every decl/definition
    checked = {}   # name -> first header declaring it at namespace scope
    for p, text in stripped.items():
        is_src = p.is_relative_to(root / "src")
        for name, qualified, in_detail, a, b in Scanner(text).scan():
            own.setdefault(name, {}).setdefault(p, []).append((a, b))
            if (is_src and p.suffix == ".hpp" and not qualified and
                    not in_detail and name not in macros):
                checked.setdefault(name, p)
    uses = {}      # name -> [(path, offset)] of every mention, `.f`/`->f` aside
    for p, text in stripped.items():
        for m in re.finditer(r"(?<![\w.])(?<!->)[A-Za-z_]\w*", text):
            if m.group() in checked:
                uses.setdefault(m.group(), []).append((p, m.start()))
    status = 0
    for name, header in sorted(checked.items(), key=lambda kv: (str(kv[1]), kv[0])):
        used = any(not any(a <= at < b for a, b in own[name].get(p, ()))
                   for p, at in uses.get(name, ()))
        if not used:
            print(f"orphan function: {name} in "
                  f"{header.relative_to(root).as_posix()} (nothing under "
                  "src/, tools/, examples/, perfbench/ or bench/ names it "
                  "outside its own declarations and definitions)")
            status = 1
    print(f"have_callers: checked {len(checked)} functions")
    if not checked:
        print("have_callers: no functions found; the scanner is broken")
        status = 1
    return status


def main(argv):
    if len(argv) not in (2, 3) or argv[1] not in ("headers", "functions"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[2] if len(argv) == 3 else Path(__file__).parent.parent)
    return (headers if argv[1] == "headers" else functions)(root.resolve())


if __name__ == "__main__":
    sys.exit(main(sys.argv))
