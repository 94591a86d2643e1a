"""Docs hygiene: every relative link in the repo's markdown resolves.

Fast-tier guard: a renamed doc or a typo'd ``[text](path)`` fails here
instead of shipping a dead link.  External URLs and pure anchors are
out of scope — only relative file links are checked.
"""

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: [text](target) — excluding images' inner ! is fine, same rule applies
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    found = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", ".cache", "__pycache__",
                                    ".pytest_cache", "node_modules",
                                    ".hypothesis")]
        for filename in filenames:
            if filename.endswith(".md"):
                found.append(os.path.join(dirpath, filename))
    return sorted(found)


def relative_links(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # strip fenced code blocks — shell/one-liner examples are not links
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("md_path", markdown_files(),
                         ids=lambda p: os.path.relpath(p, REPO_ROOT))
def test_relative_markdown_links_resolve(md_path):
    base = os.path.dirname(md_path)
    dead = []
    for target in relative_links(md_path):
        if not target:
            continue
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            dead.append(target)
    assert not dead, ("dead relative link(s) in %s: %s"
                      % (os.path.relpath(md_path, REPO_ROOT), dead))


def test_docs_are_linked_from_readme():
    with open(os.path.join(REPO_ROOT, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    for doc in ("docs/architecture.md", "docs/observability.md",
                "docs/adaptation.md", "docs/minijava.md",
                "docs/performance.md", "docs/service.md",
                "docs/profdb.md", "docs/metrics.md", "docs/index.md"):
        assert doc in readme, "%s not linked from README" % doc


def test_every_docs_page_is_reachable_from_index():
    """docs/index.md is the TOC: walking its links (transitively,
    within docs/) must reach every docs/*.md file."""
    docs_dir = os.path.join(REPO_ROOT, "docs")
    pages = {name for name in os.listdir(docs_dir)
             if name.endswith(".md")}
    reached = set()
    frontier = ["index.md"]
    while frontier:
        page = frontier.pop()
        if page in reached or page not in pages:
            continue
        reached.add(page)
        for target in relative_links(os.path.join(docs_dir, page)):
            resolved = os.path.normpath(
                os.path.join(docs_dir, target))
            if os.path.dirname(resolved) == docs_dir:
                frontier.append(os.path.basename(resolved))
    assert reached == pages, (
        "docs pages unreachable from index.md: %s"
        % sorted(pages - reached))


def test_docs_pages_cross_link_each_other():
    """Every docs page links the index and every sibling page."""
    docs_dir = os.path.join(REPO_ROOT, "docs")
    pages = sorted(name for name in os.listdir(docs_dir)
                   if name.endswith(".md"))
    for page in pages:
        links = set()
        for target in relative_links(os.path.join(docs_dir, page)):
            resolved = os.path.normpath(os.path.join(docs_dir, target))
            if os.path.dirname(resolved) == docs_dir:
                links.add(os.path.basename(resolved))
        missing = set(pages) - {page} - links
        assert not missing, ("docs/%s does not link: %s"
                             % (page, sorted(missing)))


def test_service_doc_lists_the_verbs_the_daemon_serves():
    """docs/service.md's "Job verbs:" and "Control verbs:" paragraphs
    name exactly ``VERBS`` and ``protocol.CONTROL_VERBS``."""
    from repro.service import VERBS, protocol
    with open(os.path.join(REPO_ROOT, "docs", "service.md"),
              encoding="utf-8") as fh:
        text = fh.read()

    def listed(label):
        paragraph = re.search(r"^%s: (.*?)\n\n" % label, text,
                              flags=re.M | re.S)
        assert paragraph, "no %r paragraph in docs/service.md" % label
        return tuple(re.findall(r"`(\w+)`", paragraph.group(1)))

    assert listed("Job verbs") == VERBS
    assert listed("Control verbs") == protocol.CONTROL_VERBS
