"""OpenMetrics / Prometheus text exposition for a metrics registry.

:func:`render` turns a :class:`~repro.metrics.registry.MetricsRegistry`
into the text format Prometheus scrapes and ``promtool`` understands:

* counters are suffixed ``_total``;
* histograms expand to cumulative ``_bucket{le="..."}`` series plus
  ``_count`` and ``_sum``;
* every family gets ``# HELP`` / ``# TYPE`` header lines and the
  document ends with ``# EOF`` (the OpenMetrics terminator).

:func:`lint` is a small structural validator used by the test suite:
it checks header/sample ordering, label syntax, cumulative bucket
monotonicity and the trailing ``# EOF`` without needing promtool.
"""

#: Content-Type for OpenMetrics text responses.
CONTENT_TYPE = ("application/openmetrics-text; version=1.0.0; "
                "charset=utf-8")


def _escape_label(value):
    """Escape a label value per the exposition-format rules."""
    return (value.replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def _format_value(value):
    """Render a sample value (integers without a trailing ``.0``)."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(names, values, extra=()):
    """``{a="x",b="y"}`` text for one series (empty string if none)."""
    pairs = ['%s="%s"' % (name, _escape_label(value))
             for name, value in zip(names, values)]
    pairs.extend('%s="%s"' % (name, _escape_label(value))
                 for name, value in extra)
    return "{%s}" % ",".join(pairs) if pairs else ""


def render(registry):
    """OpenMetrics text document for every family in *registry*."""
    lines = []
    for name, family in registry.families():
        exposition_name = name + "_total" \
            if family.type == "counter" else name
        help_text = family.help or name.replace("_", " ")
        lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, family.type))
        for key, child in family.series():
            label_names = family.label_names
            if family.type in ("counter", "gauge"):
                lines.append("%s%s %s" % (
                    exposition_name,
                    _labels_text(label_names, key),
                    _format_value(child.value)))
            else:
                cumulative = 0
                for bound, count in zip(
                        tuple(child.bounds) + (float("inf"),),
                        child.buckets):
                    cumulative += count
                    lines.append("%s_bucket%s %d" % (
                        name,
                        _labels_text(label_names, key,
                                     extra=(("le",
                                             _format_value(bound)),)),
                        cumulative))
                lines.append("%s_count%s %d" % (
                    name, _labels_text(label_names, key), child.count))
                lines.append("%s_sum%s %s" % (
                    name, _labels_text(label_names, key),
                    _format_value(child.total)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def lint(text):
    """Structural check of an OpenMetrics document.

    Returns a list of problem strings (empty when the document is
    well-formed).  Checks: ``# EOF`` terminator, HELP/TYPE before
    samples, sample names matching their family (modulo the
    counter/histogram suffixes), parseable values, and non-decreasing
    cumulative histogram buckets.
    """
    problems = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("document does not end with '# EOF'")
    families = {}          # name -> type
    current = None
    bucket_cumulative = {}  # (name, labels-sans-le) -> last cumulative
    for lineno, line in enumerate(lines, 1):
        if not line:
            problems.append("line %d: blank line" % lineno)
            continue
        if line == "# EOF":
            if lineno != len(lines):
                problems.append("line %d: '# EOF' before end" % lineno)
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                problems.append("line %d: malformed comment" % lineno)
                continue
            name = parts[2]
            if line.startswith("# TYPE "):
                if len(parts) < 4 or parts[3] not in (
                        "counter", "gauge", "histogram"):
                    problems.append("line %d: bad TYPE" % lineno)
                    continue
                if name in families:
                    problems.append("line %d: duplicate TYPE for %s"
                                    % (lineno, name))
                families[name] = parts[3]
                current = name
            continue
        if line.startswith("#"):
            problems.append("line %d: unknown comment" % lineno)
            continue
        # sample line: name{labels} value
        head, _, value_text = line.rpartition(" ")
        if not head:
            problems.append("line %d: no value" % lineno)
            continue
        if value_text not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value_text)
            except ValueError:
                problems.append("line %d: bad value %r"
                                % (lineno, value_text))
                continue
        name, labels = head, ""
        if "{" in head:
            name, _, labels = head.partition("{")
            if not labels.endswith("}"):
                problems.append("line %d: unterminated labels" % lineno)
                continue
            labels = labels[:-1]
        base = name
        for suffix in ("_total", "_bucket", "_count", "_sum"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                base = name[:-len(suffix)]
                break
        if base not in families:
            problems.append("line %d: sample %s has no TYPE header"
                            % (lineno, name))
            continue
        if current != base:
            problems.append("line %d: sample %s outside its family "
                            "block" % (lineno, name))
        family_type = families[base]
        if family_type == "counter" and not name.endswith("_total"):
            problems.append("line %d: counter sample %s missing "
                            "_total suffix" % (lineno, name))
        if family_type == "histogram" and name.endswith("_bucket"):
            if 'le="' not in labels:
                problems.append("line %d: _bucket without le label"
                                % lineno)
                continue
            series_key = (base, ",".join(
                part for part in labels.split(",")
                if not part.startswith("le=")))
            cumulative = float(value_text)
            last = bucket_cumulative.get(series_key)
            if last is not None and cumulative < last:
                problems.append("line %d: histogram buckets not "
                                "cumulative" % lineno)
            bucket_cumulative[series_key] = cumulative
    return problems
