#!/usr/bin/env python3
"""Validates the repository's documentation surface.

Checks (CI runs this as the docs-check job; see .github/workflows/ci.yml):
  * every relative markdown link in README.md, docs/MANUAL.md,
    docs/ARCHITECTURE.md, and docs/DOMAINS.md resolves to a file or
    directory in the repository;
  * every `#fragment` in those links (same-file or cross-file) matches a
    GitHub-style anchor slug of a heading in the target document;
  * every backtick-quoted file path mentioned in the checked documents
    that looks repo-relative (starts with src/, docs/, tests/, tools/,
    bench/, or examples/) exists — the paper-to-file pointer table is
    the main consumer;
  * with --analyze=PATH: no drift between `--help` and MANUAL.md, for
    that swift-analyze and for the swift-difftest beside it — every
    flag a binary documents is mentioned in the manual, and the
    analysis-domain names each accepts agree with the ones documented
    in MANUAL.md section 14.

Exit 0 with a one-line summary on success, exit 1 listing every
violation found.
"""

import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "docs/MANUAL.md", "docs/ARCHITECTURE.md",
        "docs/DOMAINS.md"]

LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_PATH_RE = re.compile(
    r"`((?:src|docs|tests|tools|bench|examples)/[A-Za-z0-9_./{},-]*)`")
HELP_FLAG_RE = re.compile(r"^\s{2}(--[a-z][a-z-]*)", re.MULTILINE)

errors = []


def error(doc, msg):
    errors.append(f"{doc}: {msg}")


def github_slug(heading):
    """The anchor GitHub generates for a heading (sans duplicate suffix)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # strip links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path):
    """All valid anchor slugs of a markdown file, duplicates suffixed."""
    seen = {}
    anchors = set()
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def strip_fences(text):
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_links(doc):
    doc_path = os.path.join(REPO, doc)
    text = strip_fences(open(doc_path, encoding="utf-8").read())
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(doc_path), path_part))
            if not os.path.exists(resolved):
                error(doc, f"dead link target '{target}'")
                continue
        else:
            resolved = doc_path
        if fragment:
            if not resolved.endswith(".md"):
                error(doc, f"anchor on non-markdown target '{target}'")
            elif fragment not in anchors_of(resolved):
                error(doc, f"dead anchor '#{fragment}' in link '{target}'")


def check_code_paths(doc):
    text = strip_fences(open(os.path.join(REPO, doc), encoding="utf-8").read())
    for ref in CODE_PATH_RE.findall(text):
        # `a/b.{h,cpp}` names each expansion; `a/b/` names a directory.
        candidates = []
        brace = re.match(r"(.*)\{([^}]*)\}(.*)", ref)
        if brace:
            pre, alts, post = brace.groups()
            candidates = [pre + a + post for a in alts.split(",")]
        else:
            candidates = [ref]
        for c in candidates:
            if not os.path.exists(os.path.join(REPO, c)):
                error(doc, f"referenced path '{c}' does not exist")


def check_flag_drift(binary):
    name = os.path.basename(binary)
    if not os.path.exists(binary):
        error(name, f"binary '{binary}' not found")
        return
    manual = open(os.path.join(REPO, "docs/MANUAL.md"),
                  encoding="utf-8").read()
    proc = subprocess.run([binary, "--help"], capture_output=True,
                          text=True)
    help_text = proc.stdout + proc.stderr
    if f"usage: {name}" not in help_text:
        error(name, "--help did not print the usage text")
        return
    flags = set(HELP_FLAG_RE.findall(help_text))
    if not flags:
        error(name, "no flags parsed from --help output")
    for flag in sorted(flags - {"--help"}):
        if flag + "=" not in manual and flag not in manual:
            error("docs/MANUAL.md",
                  f"flag {flag} from {name} --help is undocumented")
    # The registered analysis domains must agree with the MANUAL.md
    # section 14 catalog table (rows like "| `taint` | ..."). The
    # binary's own rejection message is the runtime source of truth:
    # "invalid --domain value '...' (valid values: a, b, c)".
    probe = subprocess.run([binary, "--domain=__docs_probe__"],
                           capture_output=True, text=True)
    m = re.search(r"valid values: ([a-z, ]+)\)", probe.stdout + probe.stderr)
    if not m:
        error(name, "--domain rejection does not list the valid values")
        return
    binary_domains = set(d.strip() for d in m.group(1).split(","))
    manual_domains = set(re.findall(r"^\| `([a-z]+)`(?: \(default\))? \|",
                                    manual, re.MULTILINE))
    if binary_domains != manual_domains:
        error("docs/MANUAL.md",
              f"domain drift: {name} registers "
              f"{sorted(binary_domains)}, MANUAL.md section 14 table "
              f"documents {sorted(manual_domains)}")


def main():
    analyze = None
    for arg in sys.argv[1:]:
        if arg.startswith("--analyze="):
            analyze = arg[len("--analyze="):]
        else:
            print(f"check_docs: unknown argument '{arg}'", file=sys.stderr)
            return 1
    for doc in DOCS:
        if not os.path.exists(os.path.join(REPO, doc)):
            error(doc, "document missing")
            continue
        check_links(doc)
        check_code_paths(doc)
    if analyze:
        check_flag_drift(analyze)
        check_flag_drift(os.path.join(os.path.dirname(analyze),
                                      "swift-difftest"))
    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        print(f"check_docs: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    drift = "with" if analyze else "without"
    print(f"check_docs: OK ({len(DOCS)} documents, {drift} --help drift "
          "check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
