"""Render the static dashboard page from a ledger bundle.

The page is one self-contained HTML document: the canonical ledger
JSON is embedded in a ``<script type="application/json">`` island and
a few hundred lines of inline vanilla JS render every section from it
client-side — so the file works from ``file://``, survives being
mailed around, and is byte-deterministic for a given bundle (the only
inputs are the bundle text and the static template below).

Sections, each driven by one artifact family in the bundle:

* **Replay** (``replay`` entries): hop-by-hop SVG animation of a
  captured collective over the machine's topology layout, with link
  occupancy, in-flight message dots, fault-recovery markers
  (retransmit / backoff / reroute), a critical-path overlay, and the
  critical-path time-component breakdown.
* **Drift** (``drift`` entries): per machine/op trend of
  ``max_abs_rel_error`` across ledger generations, with breach counts.
* **Engine** (``engine-perf`` entries): per-workload throughput bars
  for the newest generation plus the total events/s trend.
* **Tuning** (``tuning`` entries): decision-table heatmaps (p x bytes
  -> algorithm) and the flip list.
* **Sweep** (``sweep`` entries): T(m) curves per machine/op/p.
* **Chaos** (``chaos`` entries): clean-vs-faulty penalty bars.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Union

from ..core.canonical import dumps
from ..obs.ledger import validate_ledger

__all__ = ["render_dashboard_html", "write_dashboard"]

PathLike = Union[str, Path]


def _embed_json(payload: Any) -> str:
    """Canonical JSON, safe inside a ``<script>`` island."""
    return dumps(payload).replace("</", "<\\/")


def render_dashboard_html(ledger: Mapping[str, Any],
                          title: str = "repro run ledger") -> str:
    """The full dashboard page for one validated ledger bundle."""
    validate_ledger(ledger)
    return (_PAGE
            .replace("__TITLE__", title)
            .replace("__DIGEST__", str(ledger["bundle_digest"]))
            .replace("__LEDGER_JSON__", _embed_json(ledger)))


def write_dashboard(ledger: Mapping[str, Any], out_dir: PathLike,
                    name: str = "index.html",
                    title: str = "repro run ledger") -> Path:
    """Write the page into ``out_dir`` and return its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(render_dashboard_html(ledger, title=title), "utf-8")
    return path


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<meta name="generator" content="repro.dash">
<meta name="repro-bundle-digest" content="__DIGEST__">
<title>__TITLE__</title>
<style>
:root { --fg:#1c2733; --muted:#68798c; --line:#d7dee6; --bg:#f7f9fb;
        --card:#ffffff; --accent:#2563eb; --crit:#d97706;
        --fault:#dc2626; --ok:#16a34a; }
* { box-sizing:border-box; }
body { margin:0; background:var(--bg); color:var(--fg);
       font:14px/1.5 "SF Mono","Cascadia Code",Menlo,Consolas,monospace; }
header { padding:18px 28px; background:var(--card);
         border-bottom:1px solid var(--line); }
header h1 { margin:0 0 4px; font-size:19px; }
header .digest { color:var(--muted); font-size:12px;
                 word-break:break-all; }
main { max-width:1180px; margin:0 auto; padding:20px 28px 60px; }
section { background:var(--card); border:1px solid var(--line);
          border-radius:8px; margin:18px 0; padding:16px 20px; }
section h2 { margin:0 0 10px; font-size:16px; }
section h3 { margin:14px 0 6px; font-size:13px; color:var(--muted);
             text-transform:uppercase; letter-spacing:.04em; }
table { border-collapse:collapse; width:100%; font-size:13px; }
th, td { text-align:left; padding:4px 10px 4px 0;
         border-bottom:1px solid var(--line); vertical-align:top; }
th { color:var(--muted); font-weight:600; }
svg { display:block; }
.controls { display:flex; gap:12px; align-items:center; margin:8px 0;
            flex-wrap:wrap; font-size:13px; }
.controls input[type=range] { flex:1; min-width:180px; }
.controls button { font:inherit; padding:3px 14px; cursor:pointer;
                   border:1px solid var(--line); border-radius:5px;
                   background:var(--bg); }
.legend { display:flex; gap:14px; flex-wrap:wrap; font-size:12px;
          color:var(--muted); margin:6px 0; }
.legend span::before { content:""; display:inline-block; width:10px;
  height:10px; border-radius:2px; margin-right:5px;
  background:var(--sw, #999); vertical-align:-1px; }
.muted { color:var(--muted); }
.empty { color:var(--muted); font-style:italic; }
.pill { display:inline-block; padding:0 8px; border-radius:9px;
        font-size:11px; background:var(--bg);
        border:1px solid var(--line); }
.pass { color:var(--ok); } .fail { color:var(--fault); }
</style>
</head>
<body>
<header>
  <h1>__TITLE__</h1>
  <div class="digest">bundle digest <span id="digest">__DIGEST__</span></div>
</header>
<main id="app"></main>
<script type="application/json" id="ledger">
__LEDGER_JSON__</script>
<script>
"use strict";
const LEDGER = JSON.parse(document.getElementById("ledger").textContent);
const APP = document.getElementById("app");
const byFamily = {};
for (const e of LEDGER.entries)
  (byFamily[e.family] = byFamily[e.family] || []).push(e);

const PALETTE = ["#2563eb","#d97706","#16a34a","#dc2626","#7c3aed",
                 "#0891b2","#be185d","#4d7c0f","#b45309","#1e40af"];
function colorFor(key, table) {
  if (!(key in table))
    table[key] = PALETTE[Object.keys(table).length % PALETTE.length];
  return table[key];
}
function el(tag, attrs, ...kids) {
  const node = document.createElement(tag);
  for (const [k, v] of Object.entries(attrs || {}))
    k === "text" ? node.textContent = v : node.setAttribute(k, v);
  for (const kid of kids) if (kid != null) node.append(kid);
  return node;
}
function svgEl(tag, attrs) {
  const node = document.createElementNS("http://www.w3.org/2000/svg", tag);
  for (const [k, v] of Object.entries(attrs || {}))
    k === "text" ? node.textContent = v : node.setAttribute(k, v);
  return node;
}
function section(title, ...kids) {
  const s = el("section", {}, el("h2", {text: title}), ...kids);
  APP.append(s);
  return s;
}
function fmt(x, digits) {
  if (x == null || isNaN(x)) return "-";
  return Number(x).toLocaleString("en-US",
    {maximumFractionDigits: digits == null ? 2 : digits});
}

/* ---------------- overview ---------------- */
(function overview() {
  const rows = LEDGER.entries.map(e => el("tr", {},
    el("td", {text: e.path}),
    el("td", {}, el("span", {class: "pill", text: e.family})),
    el("td", {text: e.schema || "(by shape)"}),
    el("td", {class: "muted", text: e.digest.slice(0, 16)})));
  const census = Object.entries(LEDGER.families)
    .map(([f, n]) => f + " x" + n).join(", ");
  section("Bundle",
    el("p", {class: "muted",
             text: LEDGER.entries.length + " artifacts (" + census + ")"}),
    el("table", {},
      el("tr", {}, el("th", {text: "path"}), el("th", {text: "family"}),
                   el("th", {text: "schema"}), el("th", {text: "digest"})),
      ...rows));
})();

/* ---------------- replay ---------------- */
const CAT_COLOR = {message: "#2563eb", link: "#0891b2",
                   retransmit: "#dc2626", backoff: "#d97706",
                   reroute: "#7c3aed"};
function buildReplay(entry) {
  const doc = entry.document;
  const W = 760, H = 460, M = 42;
  const X = u => M + u * (W - 2 * M), Y = v => M + v * (H - 2 * M);
  const pos = doc.topology.positions;
  const svg = svgEl("svg", {viewBox: "0 0 " + W + " " + H,
                            width: "100%", height: H});
  // static topology edges: every distinct link geometry seen in frames
  const edges = new Set();
  for (const f of doc.frames)
    if (f.points) edges.add(JSON.stringify(f.points));
  const staticLayer = svgEl("g", {});
  for (const e of edges) {
    const [[x0, y0], [x1, y1]] = JSON.parse(e);
    staticLayer.append(svgEl("line", {x1: X(x0), y1: Y(y0),
      x2: X(x1), y2: Y(y1), stroke: "#e4e9ee", "stroke-width": 2}));
  }
  svg.append(staticLayer);
  const liveLayer = svgEl("g", {});
  svg.append(liveLayer);
  const nodeLayer = svgEl("g", {});
  pos.forEach(([u, v], i) => {
    nodeLayer.append(svgEl("circle", {cx: X(u), cy: Y(v), r: 7,
      fill: "#fff", stroke: "#94a3b8", "stroke-width": 1.5,
      id: "n" + entry.digest.slice(0, 6) + "-" + i}));
    nodeLayer.append(svgEl("text", {x: X(u), y: Y(v) + 3.5,
      "text-anchor": "middle", "font-size": 8, fill: "#475569",
      text: String(i)}));
  });
  svg.append(nodeLayer);

  const frames = doc.frames.filter(f =>
    f.category !== "collective" && f.category !== "phase");
  const t0 = 0, t1 = Math.max(doc.elapsed_us,
    ...doc.frames.map(f => f.end_us));
  const cp = new Set(doc.critical_path ?
                     doc.critical_path.span_ids : []);
  const slider = el("input", {type: "range", min: 0, max: 1000,
                              value: 0});
  const playBtn = el("button", {text: "Play"});
  const cpToggle = el("input", {type: "checkbox", checked: ""});
  const timeLabel = el("span", {class: "muted"});
  let playing = null;

  function draw(t) {
    timeLabel.textContent = "t = " + fmt(t, 1) + " / " +
                            fmt(t1, 1) + " us";
    liveLayer.replaceChildren();
    for (const f of frames) {
      const dur = Math.max(f.end_us - f.start_us, 1e-9);
      if (t < f.start_us || t > f.end_us + 1e-9) continue;
      const onCp = cpToggle.checked && cp.has(f.id);
      const color = onCp ? "#d97706" :
                    (CAT_COLOR[f.category] || "#999");
      if (f.category === "link" && f.points) {
        const [[x0, y0], [x1, y1]] = f.points;
        liveLayer.append(svgEl("line", {x1: X(x0), y1: Y(y0),
          x2: X(x1), y2: Y(y1), stroke: color,
          "stroke-width": onCp ? 5 : 3.5, "stroke-linecap": "round",
          opacity: 0.85}));
      } else if (f.category === "message" || f.category === "link") {
        const src = pos[f.node], dst = pos[f.dst != null ? f.dst : f.node];
        if (!src || !dst) continue;
        const frac = Math.min((t - f.start_us) / dur, 1);
        liveLayer.append(svgEl("line", {x1: X(src[0]), y1: Y(src[1]),
          x2: X(dst[0]), y2: Y(dst[1]), stroke: color,
          "stroke-width": onCp ? 2.5 : 1.2, opacity: 0.55,
          "stroke-dasharray": f.category === "message" ? "" : "4 3"}));
        liveLayer.append(svgEl("circle", {
          cx: X(src[0] + (dst[0] - src[0]) * frac),
          cy: Y(src[1] + (dst[1] - src[1]) * frac),
          r: onCp ? 4.5 : 3.5, fill: color}));
      } else {  // retransmit / backoff / reroute recovery markers
        const p = pos[f.node] || [0.5, 0.5];
        liveLayer.append(svgEl("circle", {cx: X(p[0]), cy: Y(p[1]),
          r: 12, fill: "none", stroke: color, "stroke-width": 3,
          opacity: 0.9}));
      }
    }
  }
  slider.addEventListener("input",
    () => draw(t0 + (slider.value / 1000) * (t1 - t0)));
  cpToggle.addEventListener("change",
    () => draw(t0 + (slider.value / 1000) * (t1 - t0)));
  playBtn.addEventListener("click", () => {
    if (playing) { clearInterval(playing); playing = null;
                   playBtn.textContent = "Play"; return; }
    playBtn.textContent = "Pause";
    playing = setInterval(() => {
      let v = Number(slider.value) + 4;
      if (v > 1000) v = 0;
      slider.value = v;
      draw(t0 + (v / 1000) * (t1 - t0));
    }, 40);
  });
  draw(0);

  const header = doc.op + " on " + doc.machine + " - p=" +
    doc.num_nodes + ", m=" + doc.nbytes + " B, seed " + doc.seed +
    (doc.faults ? ", faults: " + doc.faults : "") +
    " - " + fmt(doc.elapsed_us, 1) + " us simulated (" +
    doc.topology.kind + ")";
  const legend = el("div", {class: "legend"},
    ...Object.entries(CAT_COLOR).map(([cat, color]) =>
      el("span", {style: "--sw:" + color, text: cat})),
    el("span", {style: "--sw:#d97706", text: "critical path"}));
  const kids = [el("p", {class: "muted", text: header}),
    el("div", {class: "controls"}, playBtn, slider, timeLabel,
      el("label", {}, cpToggle, " critical path")),
    legend, svg];
  if (doc.critical_path) {
    const comps = doc.critical_path.components;
    const total = Object.values(comps).reduce((a, b) => a + b, 0) || 1;
    const bar = svgEl("svg", {viewBox: "0 0 760 26", width: "100%",
                              height: 26});
    let x = 0;
    const compColor = {software: "#94a3b8", wire: "#2563eb",
                       contention: "#d97706", fault_recovery: "#dc2626"};
    for (const [name, us] of Object.entries(comps).sort()) {
      const w = 760 * us / total;
      if (w > 0) bar.append(svgEl("rect", {x: x, y: 4, width: w,
        height: 18, fill: compColor[name] || "#999"}));
      x += w;
    }
    kids.push(el("h3", {text: "critical path - " +
      fmt(doc.critical_path.total_us, 1) + " us"}), bar,
      el("div", {class: "legend"},
        ...Object.entries(comps).sort().map(([name, us]) =>
          el("span", {style: "--sw:" + (compColor[name] || "#999"),
            text: name + " " + fmt(us, 1) + " us"}))));
  }
  return kids;
}
(function replays() {
  const entries = byFamily.replay || [];
  const s = section("Collective replay");
  if (!entries.length) {
    s.append(el("p", {class: "empty",
      text: "no captured replays in this bundle - run " +
            "repro-bench dash --capture machine:op"}));
    return;
  }
  for (const entry of entries) {
    s.append(el("h3", {text: entry.path}));
    for (const kid of buildReplay(entry)) s.append(kid);
  }
})();

/* ---------------- line chart helper ---------------- */
function lineChart(seriesList, opts) {
  const W = 760, H = opts.height || 220, ML = 64, MR = 12,
        MT = 10, MB = 26;
  const svg = svgEl("svg", {viewBox: "0 0 " + W + " " + H,
                            width: "100%", height: H});
  let ymax = 0, xmax = 1;
  for (const s of seriesList) {
    for (const [x, y] of s.points) {
      if (y > ymax) ymax = y;
      if (x > xmax) xmax = x;
    }
  }
  if (ymax <= 0) ymax = 1;
  const X = x => ML + (x / xmax) * (W - ML - MR);
  const Y = y => H - MB - (y / ymax) * (H - MT - MB);
  for (let i = 0; i <= 4; i++) {
    const y = ymax * i / 4;
    svg.append(svgEl("line", {x1: ML, y1: Y(y), x2: W - MR, y2: Y(y),
      stroke: "#eef1f5"}));
    svg.append(svgEl("text", {x: ML - 6, y: Y(y) + 3.5,
      "text-anchor": "end", "font-size": 10, fill: "#68798c",
      text: opts.yfmt ? opts.yfmt(y) : fmt(y)}));
  }
  for (let x = 0; x <= xmax; x++)
    svg.append(svgEl("text", {x: X(x), y: H - MB + 14,
      "text-anchor": "middle", "font-size": 10, fill: "#68798c",
      text: opts.xlabel ? opts.xlabel(x) : String(x)}));
  for (const s of seriesList) {
    const pts = s.points.map(([x, y]) => X(x) + "," + Y(y)).join(" ");
    svg.append(svgEl("polyline", {points: pts, fill: "none",
      stroke: s.color, "stroke-width": 2}));
    for (const [x, y] of s.points)
      svg.append(svgEl("circle", {cx: X(x), cy: Y(y), r: 3,
                                  fill: s.color}));
  }
  return svg;
}

/* ---------------- drift trends ---------------- */
(function drift() {
  const entries = byFamily.drift || [];
  const s = section("Drift audit trend");
  if (!entries.length) {
    s.append(el("p", {class: "empty", text: "no drift artifacts"}));
    return;
  }
  const latest = entries[entries.length - 1].document;
  s.append(el("p", {},
    el("span", {class: latest.pass ? "pass" : "fail",
      text: latest.pass ? "PASS" : "FAIL"}),
    el("span", {class: "muted", text: " - " + latest.breaches +
      " breach(es), tolerance " + latest.tolerance + ", " +
      entries.length + " generation(s) in bundle"})));
  const keys = new Set();
  for (const e of entries)
    for (const k of Object.keys(e.document.summary || {})) keys.add(k);
  const colors = {};
  const series = [...keys].sort().map(key => ({
    label: key, color: colorFor(key, colors),
    points: entries.map((e, i) =>
      [i, (e.document.summary[key] || {}).max_abs_rel_error || 0]),
  }));
  s.append(el("h3", {text: "max |rel error| per machine/op " +
                           "across generations"}));
  s.append(lineChart(series, {xlabel: i => "gen " + i,
    yfmt: y => (100 * y).toFixed(2) + "%"}));
  s.append(el("div", {class: "legend"}, ...series.map(sr =>
    el("span", {style: "--sw:" + sr.color, text: sr.label}))));
  const rows = Object.entries(latest.summary || {}).map(([k, v]) =>
    el("tr", {}, el("td", {text: k}),
      el("td", {text: String(v.cells)}),
      el("td", {class: v.breaches ? "fail" : "pass",
                text: String(v.breaches)}),
      el("td", {text: (100 * v.max_abs_rel_error).toFixed(3) + "%"}),
      el("td", {text: (100 * v.mean_abs_rel_error).toFixed(3) + "%"})));
  s.append(el("h3", {text: "latest generation"}),
    el("table", {}, el("tr", {},
      el("th", {text: "machine/op"}), el("th", {text: "cells"}),
      el("th", {text: "breaches"}), el("th", {text: "max"}),
      el("th", {text: "mean"})), ...rows));
})();

/* ---------------- engine throughput ---------------- */
(function engine() {
  const entries = byFamily["engine-perf"] || [];
  const s = section("Engine throughput");
  if (!entries.length) {
    s.append(el("p", {class: "empty",
                      text: "no engine-perf artifacts"}));
    return;
  }
  const totals = entries.map((e, i) =>
    [i, e.document.throughput.total.events_per_sec || 0]);
  s.append(el("h3", {text: "total events/s across generations"}));
  s.append(lineChart([{label: "total", color: "#2563eb",
                       points: totals}],
    {xlabel: i => "gen " + i, yfmt: y => fmt(y, 0)}));
  const latest = entries[entries.length - 1].document;
  const workloads = Object.entries(latest.throughput.workloads || {})
    .sort();
  const wmax = Math.max(1,
    ...workloads.map(([, v]) => v.events_per_sec || 0));
  const rows = workloads.map(([name, v]) => {
    const bar = svgEl("svg", {viewBox: "0 0 300 12", width: 300,
                              height: 12});
    bar.append(svgEl("rect", {x: 0, y: 1, height: 10,
      width: Math.max(1, 300 * (v.events_per_sec || 0) / wmax),
      fill: "#0891b2"}));
    return el("tr", {}, el("td", {text: name}),
      el("td", {text: fmt(v.events_per_sec, 0)}), el("td", {}, bar));
  });
  s.append(el("h3", {text: "latest generation (suite " +
    latest.suite + ", " +
    fmt(latest.throughput.total.events_fired, 0) +
    " events)"}),
    el("table", {}, el("tr", {}, el("th", {text: "workload"}),
      el("th", {text: "events/s"}), el("th", {text: ""})), ...rows));
})();

/* ---------------- tuner heatmaps ---------------- */
(function tuning() {
  const entries = byFamily.tuning || [];
  const s = section("Tuner decision tables");
  if (!entries.length) {
    s.append(el("p", {class: "empty", text: "no tuning artifacts"}));
    return;
  }
  const doc = entries[entries.length - 1].document;
  const colors = {};
  for (const [machine, ops] of Object.entries(doc.machines).sort()) {
    for (const [op, table] of Object.entries(ops).sort()) {
      const byteCuts = new Set([0]), pCuts = new Set();
      for (const entry of table.entries) {
        pCuts.add(entry.min_p);
        for (const rule of entry.rules) byteCuts.add(rule.min_bytes);
      }
      const bytes = [...byteCuts].sort((a, b) => a - b);
      const ps = [...pCuts].sort((a, b) => a - b);
      const head = el("tr", {}, el("th", {text: "p \\\\ bytes"}),
        ...bytes.map(b => el("th", {text: ">=" + b})));
      const rows = ps.map(p => {
        const entry = [...table.entries].reverse()
          .find(e => e.min_p <= p) || {rules: []};
        return el("tr", {}, el("td", {text: ">=" + p}),
          ...bytes.map(b => {
            let algo = table.default;
            for (const rule of entry.rules)
              if (rule.min_bytes <= b) algo = rule.algorithm;
            return el("td", {style: "background:" +
              colorFor(algo, colors) + "22;border-left:3px solid " +
              colorFor(algo, colors), text: algo});
          }));
      });
      s.append(el("h3", {text: machine + " / " + op +
        " (default " + table.default + ")"}),
        el("table", {}, head, ...rows));
    }
  }
  if (doc.flips && doc.flips.length) {
    const rows = doc.flips.slice(0, 20).map(f => el("tr", {},
      el("td", {text: f.machine + "/" + f.op}),
      el("td", {text: "p=" + f.p + ", m=" + f.nbytes}),
      el("td", {text: f.default_algorithm + " -> " + f.algorithm}),
      el("td", {class: "pass", text: fmt(f.speedup, 2) + "x"})));
    s.append(el("h3", {text: "algorithm flips (" + doc.flips.length +
                             " total, first 20)"}),
      el("table", {}, el("tr", {}, el("th", {text: "cell"}),
        el("th", {text: "size"}), el("th", {text: "flip"}),
        el("th", {text: "speedup"})), ...rows));
  }
})();

/* ---------------- sweep curves ---------------- */
(function sweep() {
  const entries = byFamily.sweep || [];
  const s = section("Sweep curves");
  if (!entries.length) {
    s.append(el("p", {class: "empty", text: "no sweep artifacts"}));
    return;
  }
  const doc = entries[entries.length - 1].document;
  const groups = {};
  for (const cell of doc.cells) {
    const key = cell.machine + "/" + cell.op;
    (groups[key] = groups[key] || []).push(cell);
  }
  for (const [key, cells] of Object.entries(groups).sort()) {
    const byP = {};
    for (const c of cells)
      (byP[c.p] = byP[c.p] || []).push([c.nbytes, c.result.time_us]);
    const sizes = [...new Set(cells.map(c => c.nbytes))]
      .sort((a, b) => a - b);
    const colors = {};
    const series = Object.entries(byP)
      .sort((a, b) => a[0] - b[0]).map(([p, pts]) => ({
        label: "p=" + p, color: colorFor(p, colors),
        points: pts.sort((a, b) => a[0] - b[0])
          .map(([m, t]) => [sizes.indexOf(m), t]),
      }));
    s.append(el("h3", {text: key + " - T(m) us"}),
      lineChart(series, {height: 180,
        xlabel: i => sizes[i] != null ? String(sizes[i]) : "",
        yfmt: y => fmt(y, 0)}),
      el("div", {class: "legend"}, ...series.map(sr =>
        el("span", {style: "--sw:" + sr.color, text: sr.label}))));
  }
})();

/* ---------------- chaos ---------------- */
(function chaos() {
  const entries = byFamily.chaos || [];
  if (!entries.length) return;
  const s = section("Chaos runs");
  const max = Math.max(...entries.map(e => e.document.faulty_us));
  const rows = entries.map(e => {
    const d = e.document;
    const bar = svgEl("svg", {viewBox: "0 0 300 22", width: 300,
                              height: 22});
    bar.append(svgEl("rect", {x: 0, y: 2, height: 8,
      width: Math.max(1, 300 * d.clean_us / max), fill: "#16a34a"}));
    bar.append(svgEl("rect", {x: 0, y: 12, height: 8,
      width: Math.max(1, 300 * d.faulty_us / max), fill: "#dc2626"}));
    return el("tr", {},
      el("td", {text: d.machine + "/" + d.op + " (" + d.plan + ")"}),
      el("td", {text: fmt(d.clean_us, 1)}),
      el("td", {text: fmt(d.faulty_us, 1)}),
      el("td", {text: "+" + fmt(d.penalty_us, 1)}), el("td", {}, bar));
  });
  s.append(el("table", {}, el("tr", {},
    el("th", {text: "run"}), el("th", {text: "clean us"}),
    el("th", {text: "faulty us"}), el("th", {text: "penalty"}),
    el("th", {text: "clean (green) vs faulty (red)"})), ...rows));
})();
</script>
</body>
</html>
"""
