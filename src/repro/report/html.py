"""Self-contained HTML campaign report.

One file, zero network: styles are an inline ``<style>`` block, charts
are inline SVG, the recovery walk and flame stacks are embedded text.
The file renders identically from a CI artifact tab, ``file://``, or an
air-gapped machine -- the whole point of a report you attach to a run.

Chart conventions (kept deliberately boring):

- one measure per chart, horizontal bars, one bar per strategy;
- color carries *strategy identity* and is assigned in first-seen order
  from a fixed categorical palette -- the same strategy wears the same
  hue in every chart, and a re-render with fewer strategies never
  repaints the survivors;
- the bootstrap CI is a whisker over the bar; exact values are also in
  the adjacent tables (the accessible, copy-pasteable view);
- values/labels are text-ink, never series-colored; native ``<title>``
  tooltips carry the full numbers on hover.

Light and dark are both first-class: the palette below is the validated
default pair (each mode's steps chosen for its surface), switched by
``prefers-color-scheme`` with no script.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: categorical palette, fixed slot order (light, dark) -- validated as a
#: set for adjacent-pair CVD separation on both surfaces; strategies map
#: to slots in first-seen order and never cycle
PALETTE: List[Tuple[str, str]] = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 2rem clamp(1rem, 5vw, 4rem);
  background: var(--surface-1); color: var(--text-primary);
  font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
body {
  --surface-1: #fcfcfb; --surface-2: #f1f0ee;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --line: #d8d6d2;
}
@media (prefers-color-scheme: dark) {
  body {
    --surface-1: #1a1a19; --surface-2: #252523;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --line: #3c3b38;
  }
}
h1 { font-size: 1.5rem; margin: 0 0 .25rem; }
h2 { font-size: 1.15rem; margin: 2.2rem 0 .6rem; }
h3 { font-size: 1rem; margin: 1.4rem 0 .4rem; }
.sub { color: var(--text-secondary); margin: 0 0 1.2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: .75rem; margin: 1.2rem 0; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: .6rem 1rem; min-width: 7rem;
}
.tile .v { font-size: 1.35rem; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: .8rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td {
  text-align: right; padding: .3rem .7rem;
  border-bottom: 1px solid var(--line); font-variant-numeric: tabular-nums;
}
th { color: var(--text-secondary); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
.swatch {
  display: inline-block; width: .7em; height: .7em;
  border-radius: 2px; margin-right: .45em; vertical-align: baseline;
}
.flag { color: var(--text-secondary); }
.badge-diverged {
  display: inline-block; padding: 0 .45em; border-radius: 999px;
  background: light-dark(#e34948, #e66767); color: #fff;
  font-size: .8rem; font-weight: 600;
}
.flags li { margin: .25rem 0; }
details { margin: .8rem 0; }
details pre {
  background: var(--surface-2); border-radius: 8px; padding: .8rem 1rem;
  overflow-x: auto; font-size: 12px; line-height: 1.45; max-height: 28rem;
}
summary { cursor: pointer; color: var(--text-secondary); }
svg text { font: 12px system-ui, sans-serif; fill: var(--text-primary); }
svg .muted { fill: var(--text-secondary); }
svg .grid { stroke: var(--line); stroke-width: 1; }
footer {
  margin-top: 3rem; color: var(--text-secondary); font-size: .8rem;
}
"""


def esc(text: Any) -> str:
    return _html.escape(str(text), quote=True)


def strategy_colors(strategies: Sequence[str]) -> Dict[str, Tuple[str, str]]:
    """Strategy -> (light, dark) hex, fixed first-seen slot order.

    Past eight strategies the palette does NOT cycle -- extra strategies
    wear a neutral gray and rely on labels (identity is never
    color-alone anyway: every mark sits next to its name).
    """
    out: Dict[str, Tuple[str, str]] = {}
    for i, s in enumerate(strategies):
        out[s] = PALETTE[i] if i < len(PALETTE) else ("#8a8885", "#8a8885")
    return out


# -- charts -------------------------------------------------------------


def hbar_chart(
    title: str,
    unit: str,
    rows: Sequence[Dict[str, Any]],
    value_format: str = "{:.1f}",
) -> str:
    """Horizontal bars with CI whiskers, one per strategy.

    ``rows``: dicts with ``label``, ``mean``, ``ci_lo``, ``ci_hi``,
    ``color`` -- color as a (light, dark) pair rendered via a per-row
    CSS variable so dark mode swaps without scripting.
    """
    if not rows:
        return ""
    left, right, bar_h, gap, pad = 150, 70, 22, 12, 8
    width = 640
    plot_w = width - left - right
    height = pad * 2 + len(rows) * (bar_h + gap) - gap + 22
    vmax = max(max(r["ci_hi"], r["mean"]) for r in rows)
    if vmax <= 0:
        vmax = 1.0
    scale = plot_w / (vmax * 1.08)

    def x(v: float) -> float:
        return left + max(0.0, v) * scale

    parts: List[str] = []
    style_rows = []
    for i, r in enumerate(rows):
        lt, dk = r["color"]
        style_rows.append(
            f".s{i} {{ --series: {lt}; }}"
        )
        style_rows.append(
            f"@media (prefers-color-scheme: dark) "
            f"{{ .s{i} {{ --series: {dk}; }} }}"
        )
    parts.append(
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{esc(title)}">'
    )
    parts.append(f"<style>{' '.join(style_rows)}</style>")
    # baseline + end gridline, recessive
    parts.append(
        f'<line class="grid" x1="{left}" y1="{pad}" x2="{left}" '
        f'y2="{height - 22}"/>'
    )
    y = pad
    for i, r in enumerate(rows):
        mean_v, lo, hi = r["mean"], r["ci_lo"], r["ci_hi"]
        label = esc(r["label"])
        val = value_format.format(mean_v)
        tip = (f"{label}: {val}{unit} "
               f"(95% CI {value_format.format(lo)}"
               f"–{value_format.format(hi)}{unit}, "
               f"n={r.get('n', '?')})")
        cy = y + bar_h / 2
        parts.append(f'<g class="s{i}">')
        parts.append(f"<title>{esc(tip)}</title>")
        parts.append(
            f'<text x="{left - 8}" y="{cy + 4}" text-anchor="end">'
            f"{label}</text>"
        )
        # the bar: thin mark, rounded data end only (baseline stays square)
        bw = max(0.0, x(mean_v) - left)
        parts.append(
            f'<path d="M {left} {y} h {bw - 4 if bw > 4 else bw} '
            f'q 4 0 4 4 v {bar_h - 8} q 0 4 -4 4 h {-(bw - 4) if bw > 4 else -bw} z" '
            f'fill="var(--series)"/>' if bw > 4 else
            f'<rect x="{left}" y="{y}" width="{bw}" height="{bar_h}" '
            f'fill="var(--series)"/>'
        )
        # CI whisker over the bar, text-ink so it reads on the fill
        parts.append(
            f'<line x1="{x(lo)}" y1="{cy}" x2="{x(hi)}" y2="{cy}" '
            f'stroke="var(--text-primary)" stroke-width="1.5"/>'
        )
        for vx in (lo, hi):
            parts.append(
                f'<line x1="{x(vx)}" y1="{cy - 5}" x2="{x(vx)}" '
                f'y2="{cy + 5}" stroke="var(--text-primary)" '
                f'stroke-width="1.5"/>'
            )
        # direct value label past the whisker, text ink
        parts.append(
            f'<text x="{x(max(hi, mean_v)) + 8}" y="{cy + 4}">'
            f"{esc(val)}{esc(unit)}</text>"
        )
        parts.append("</g>")
        y += bar_h + gap
    parts.append(
        f'<text class="muted" x="{left}" y="{height - 6}">'
        f"0{esc(unit)} — whisker = bootstrap 95% CI of the mean"
        f"</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


# -- report body --------------------------------------------------------


def _tiles(ledger: Any, scorecard: Dict[str, Any]) -> str:
    prog = ledger.progress or {}
    total_viol = sum(e.get("total_violations", 0)
                     for e in scorecard["strategies"].values())
    total_alerts = sum(e.get("total_alerts", 0)
                       for e in scorecard["strategies"].values())
    divergent = sum(1 for r in ledger.runs
                    if getattr(r, "divergences", 0) > 0)
    tiles = [
        ("runs", ledger.cells()),
        ("strategies", len(ledger.strategies)),
        ("seeds", len(ledger.seeds)),
        ("scales", " / ".join(str(s) for s in ledger.scales) or "0"),
        ("cache hits", prog.get("cache_hits", 0)),
        ("simulated", prog.get("cache_misses", ledger.cells())),
        ("violations", total_viol),
        ("SLO alerts", total_alerts),
        ("divergent cells", divergent),
        ("anomaly flags", len(scorecard.get("flags", []))),
    ]
    cells = "".join(
        f'<div class="tile"><div class="v">{esc(v)}</div>'
        f'<div class="k">{esc(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _ci_cell(metric: Dict[str, float], fmt: str = "{:.2f}",
             scale: float = 1.0) -> str:
    if metric.get("n", 0) == 0:
        return "&ndash;"
    return (f"{fmt.format(metric['mean'] * scale)} "
            f'<span class="flag">[{fmt.format(metric["ci_lo"] * scale)}, '
            f'{fmt.format(metric["ci_hi"] * scale)}]</span>')


def _scorecard_table(scorecard: Dict[str, Any],
                     colors: Dict[str, Tuple[str, str]]) -> str:
    rows = []
    for strategy, entry in scorecard["strategies"].items():
        m = entry["metrics"]
        lt, dk = colors[strategy]
        sw = (f'<span class="swatch" style="background:'
              f'light-dark({lt}, {dk})"></span>')
        rows.append(
            "<tr>"
            f"<td>{sw}{esc(strategy)}</td>"
            f"<td>{entry['n_runs']}</td>"
            f"<td>{entry['total_failures']}</td>"
            f"<td>{_ci_cell(m['efficiency'])}</td>"
            f"<td>{_ci_cell(m['overhead_pct'], '{:.1f}%')}</td>"
            f"<td>{_ci_cell(m['recovery_latency_s'], '{:.2f}s')}</td>"
            f"<td>{_ci_cell(m['recompute_frac'], '{:.1f}%', 100.0)}</td>"
            f"<td>{_ci_cell(m['checkpoint_frac'], '{:.1f}%', 100.0)}</td>"
            f"<td>{_ci_cell(m.get('dirty_fraction', {'n': 0}), '{:.1f}%', 100.0)}</td>"
            f"<td>{m['wall_time_s']['p95']:.2f}s</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th>strategy</th><th>runs</th><th>failures</th>"
        "<th>efficiency</th><th>overhead</th><th>recovery latency</th>"
        "<th>recompute</th><th>checkpoint</th>"
        "<th>dirty</th><th>p95 wall</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
        '<p class="flag">mean [bootstrap 95% CI] across runs; recovery '
        "latency = added seconds per failure vs the failure-free "
        "baseline at the same scale; dirty = memcpy'd fraction of the "
        "logical checkpoint bytes.</p>"
    )


def _runs_table(ledger: Any) -> str:
    rows = []
    for r in ledger.runs:
        ideal = ledger.ideal.get(r.n_ranks)
        over = (f"{r.overhead_pct(ideal):.1f}%"
                if ideal and r.strategy != "none" else "&ndash;")
        div = getattr(r, "divergences", 0)
        div_cell = (
            f'<span class="badge-diverged" title="diverged from its '
            f'seeded replay; see repro.align">{div}</span>'
            if div > 0 else "0"
        )
        rows.append(
            "<tr>"
            f"<td>{esc(r.label)}</td><td>{esc(r.strategy)}</td>"
            f"<td>{r.n_ranks}</td><td>{r.seed}</td>"
            f"<td>{r.wall_time:.3f}</td><td>{over}</td>"
            f"<td>{r.attempts}</td><td>{r.failures}</td>"
            f"<td>{r.violations}</td><td>{r.alerts}</td>"
            f"<td>{div_cell}</td>"
            f"<td>{'cache' if r.cached else 'sim'}</td>"
            "</tr>"
        )
    return (
        "<details><summary>All runs "
        f"({ledger.cells()})</summary><table><thead><tr>"
        "<th>cell</th><th>strategy</th><th>ranks</th><th>seed</th>"
        "<th>wall (s)</th><th>overhead</th><th>attempts</th>"
        "<th>failures</th><th>violations</th><th>alerts</th>"
        "<th>divergences</th><th>from</th>"
        "</tr></thead><tbody>" + "".join(rows)
        + "</tbody></table></details>"
    )


def _exemplars(ledger: Any) -> str:
    if not ledger.exemplars:
        return ""
    parts = ["<h2>Exemplar failure runs</h2>",
             '<p class="sub">One instrumented seeded kill per strategy: '
             "the recovery walk (monitor explain) and the folded flame "
             "stacks (speedscope-compatible) embedded verbatim.</p>"]
    for strategy, arts in ledger.exemplars.items():
        parts.append(f"<h3>{esc(strategy)}</h3>")
        timeline = arts.get("timeline")
        if timeline:
            parts.append(
                "<details open><summary>recovery walk</summary>"
                f"<pre>{esc(timeline)}</pre></details>"
            )
        folded = arts.get("folded")
        if folded:
            parts.append(
                "<details><summary>folded flame stacks "
                "(paste into speedscope.app)</summary>"
                f"<pre>{esc(folded)}</pre></details>"
            )
    return "".join(parts)


def _flags(scorecard: Dict[str, Any]) -> str:
    flags = scorecard.get("flags", [])
    if not flags:
        return ("<h2>Anomalies</h2><p class=\"sub\">No outliers, host "
                "anomalies, invariant violations, SLO alerts, or "
                "determinism divergences flagged.</p>")
    items = "".join(f"<li>&#9888;&#65039; {esc(f)}</li>" for f in flags)
    return f'<h2>Anomalies</h2><ul class="flags">{items}</ul>'


def render_html(
    ledger: Any,
    scorecard: Optional[Dict[str, Any]] = None,
    title: str = "Campaign resilience report",
) -> str:
    """The whole document.  ``scorecard`` defaults to a fresh build."""
    from repro.report.ledger import build_scorecard

    if scorecard is None:
        scorecard = build_scorecard(ledger)
    colors = strategy_colors(ledger.strategies)
    meta = ledger.meta or {}

    charts = []
    over_rows, lat_rows = [], []
    for strategy, entry in scorecard["strategies"].items():
        m = entry["metrics"]
        if m["overhead_pct"]["n"]:
            over_rows.append({
                "label": strategy, "color": colors[strategy],
                "mean": m["overhead_pct"]["mean"],
                "ci_lo": m["overhead_pct"]["ci_lo"],
                "ci_hi": m["overhead_pct"]["ci_hi"],
                "n": m["overhead_pct"]["n"],
            })
        if m["recovery_latency_s"]["n"]:
            lat_rows.append({
                "label": strategy, "color": colors[strategy],
                "mean": m["recovery_latency_s"]["mean"],
                "ci_lo": m["recovery_latency_s"]["ci_lo"],
                "ci_hi": m["recovery_latency_s"]["ci_hi"],
                "n": m["recovery_latency_s"]["n"],
            })
    if over_rows:
        charts.append("<h3>Overhead vs failure-free ideal</h3>"
                      + hbar_chart("Overhead vs ideal", "%", over_rows))
    if lat_rows:
        charts.append("<h3>Recovery latency per failure</h3>"
                      + hbar_chart("Recovery latency", "s", lat_rows,
                                   value_format="{:.2f}"))

    sub_bits = []
    if meta.get("app"):
        sub_bits.append(f"app {esc(meta['app'])}")
    if meta.get("n_iters"):
        sub_bits.append(f"{esc(meta['n_iters'])} iterations")
    if meta.get("mtbf_per_rank"):
        sub_bits.append(
            f"MTBF/rank {float(meta['mtbf_per_rank']):.1f}s")
    if meta.get("generated"):
        sub_bits.append(f"generated {esc(meta['generated'])}")
    subtitle = " &middot; ".join(sub_bits) or "seeded failure campaign"

    body = [
        f"<h1>{esc(title)}</h1>",
        f'<p class="sub">{subtitle}</p>',
        _tiles(ledger, scorecard),
        "<h2>Scorecard</h2>",
        _scorecard_table(scorecard, colors),
        "".join(charts),
        "<h2>Per-run results</h2>",
        _runs_table(ledger),
        _exemplars(ledger),
        _flags(scorecard),
        "<footer>Self-contained report (no external assets) &middot; "
        "regenerate with <code>python -m repro.report</code> &middot; "
        "gate with <code>python -m repro.report diff</code></footer>",
    ]
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        "<meta name=\"viewport\" "
        "content=\"width=device-width, initial-scale=1\">"
        f"<title>{esc(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body) + "</body></html>\n"
    )
