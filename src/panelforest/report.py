"""Side-by-side comparison artifacts: coefficient/importance tables and
importance figures.

Blocks in, files out: each fitted model becomes a :class:`ModelBlock`
(`from_linear`, `from_gmm`, `from_forest`), and `emit_tables` writes the
tables of the (setting, model) pairs that a list of blocks covers.

Tables render values at 4 decimal places with the dispersion measure in a
paired row beneath each estimate (standard errors for regressions,
standard deviations for importances) and a metrics footer; a companion
``*_full.csv`` keeps full float precision for machine consumption.
Figures are hand-written SVG so output is deterministic and diffable:
horizontal bars sorted by importance, gray when the importance p-value
exceeds 0.05.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ._common import fmt4, star_code, write_csv
from .forest import ForestMetrics
from .gmm import GmmFit
from .linear import LinearFit, t_tests
from .vimp import PermImportanceResult, SeqTestDecision

__all__ = [
    "VariableCell",
    "ModelBlock",
    "from_linear",
    "from_gmm",
    "from_forest",
    "emit_tables",
    "write_model_table",
    "emit_importance_figure",
]

SETTINGS = ("static", "dynamic")
MODELS = ("linear", "gmm", "rf")


@dataclass(frozen=True)
class VariableCell:
    """One table entry: estimate or importance, its dispersion, and p."""

    name: str
    value: float
    dispersion: float | None = None
    p: float | None = None

    @property
    def stars(self) -> str:
        return star_code(self.p) if self.p is not None else ""


@dataclass(frozen=True)
class ModelBlock:
    """One fitted model's contribution to the comparison."""

    group: str
    setting: str  # static | dynamic
    model: str  # linear | gmm | rf
    cells: tuple[VariableCell, ...]
    metrics: dict[str, float]
    footer: dict[str, str] = field(default_factory=dict)
    fingerprint: str = ""

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")


def from_linear(fit: LinearFit, group: str, fingerprint: str | None = None) -> ModelBlock:
    """Adapt a linear fit (coefficients, robust/classical SEs, stars),
    always as a block of the static setting.

    `fingerprint` overrides the fit's own when the fit was estimated on a
    group subset of a shared source dataset.
    """
    tests = t_tests(fit)
    cells = tuple(VariableCell(name, t.estimate, t.se, t.p)
                  for name, t in tests.items())
    m = fit.metrics
    metrics = {"r2": m.r_squared, "adj_r2": m.adj_r_squared,
               "f_stat": m.f_statistic, "n_obs": fit.n_obs}
    footer = {"covariance": fit.cov_method, "entities": str(fit.n_entities)}
    return ModelBlock(group, "static", "linear", cells, metrics, footer,
                      fingerprint if fingerprint is not None else fit.fingerprint)


def from_gmm(fit: GmmFit, group: str, fingerprint: str | None = None) -> ModelBlock:
    """Adapt a System GMM fit, always as a block of the dynamic setting."""
    cells = []
    for i, name in enumerate(fit.coef_names):
        se = math.sqrt(max(fit.covariance[i, i], 0.0))
        z = fit.coefficients[name] / se if se > 0 else math.nan
        p = 2.0 * (1.0 - _phi(abs(z))) if not math.isnan(z) else math.nan
        cells.append(VariableCell(name, fit.coefficients[name], se, p))
    metrics = {"n_obs": fit.n_obs_level + fit.n_obs_diff,
               "wald": fit.wald.statistic, "instruments": fit.instrument_count}
    footer = {
        "sargan": f"{fit.sargan.statistic:.4f} (df={fit.sargan.df})"
                  if fit.sargan.applicable else "n/a",
        "sargan_p": f"{fit.sargan.p:.4f}" if fit.sargan.applicable else "n/a",
        "ar1_z": _fmt_ar(fit.ar_tests[1]),
        "ar2_z": _fmt_ar(fit.ar_tests[2]),
        "wald": f"{fit.wald.statistic:.4f}{star_code(fit.wald.p)}",
        "entities": str(fit.n_entities),
    }
    return ModelBlock(group, "dynamic", "gmm", tuple(cells), metrics, footer,
                      fingerprint if fingerprint is not None else fit.fingerprint)


def _fmt_ar(ar) -> str:
    if not ar.applicable:
        return "n/a"
    return f"{ar.z:.4f}{star_code(ar.p)}"


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def from_forest(metrics: ForestMetrics, importance: PermImportanceResult,
                group: str, setting: str,
                decisions: Mapping[str, SeqTestDecision] | None = None,
                fingerprint: str = "") -> ModelBlock:
    """Adapt forest results: importance scores, stds, sequential p-values."""
    cells = []
    for name in importance.means:
        p = None
        if decisions and name in decisions:
            p = decisions[name].p_estimate
        cells.append(VariableCell(name, importance.means[name],
                                  importance.stds[name], p))
    block_metrics = {"r2": metrics.r2, "adj_r2": metrics.adj_r2,
                     "mse": metrics.mse, "f_stat": metrics.pseudo_f,
                     "n_obs": metrics.n_obs}
    footer = {"f_label": "pseudo_f", "importance_metric": importance.metric,
              "n_repeats": str(importance.n_repeats)}
    return ModelBlock(group, setting, "rf", tuple(cells), block_metrics, footer,
                      fingerprint)


def write_model_table(path: Path, blocks: Sequence[ModelBlock]) -> None:
    """One display table: a column per group, each estimate above its
    dispersion, then the metrics and footer rows."""
    by_group = {b.group: b for b in blocks}
    groups = list(by_group)
    cells = {g: {c.name: c for c in b.cells} for g, b in by_group.items()}
    rows = []
    for name in dict.fromkeys(c.name for b in blocks for c in b.cells):
        value_row, disp_row = [name], [""]
        for g in groups:
            cell = cells[g].get(name)
            value_row.append("" if cell is None else f"{fmt4(cell.value)}{cell.stars}")
            disp_row.append("" if cell is None or cell.dispersion is None
                            else f"({fmt4(cell.dispersion)})")
        rows += [value_row, disp_row]
    for k in dict.fromkeys(k for b in blocks for k in b.metrics):
        values = [by_group[g].metrics.get(k) for g in groups]
        rows.append([k, *(str(v) if isinstance(v, int) else fmt4(v) for v in values)])
    for k in dict.fromkeys(k for b in blocks for k in b.footer):
        rows.append([k, *[by_group[g].footer.get(k, "") for g in groups]])
    write_csv(path, ["variable", *groups], rows)


def _write_full_precision(path: Path, blocks: Sequence[ModelBlock]) -> None:
    write_csv(path, ["group", "setting", "model", "variable", "value", "dispersion", "p"],
              ([b.group, b.setting, b.model, c.name, repr(c.value),
                "" if c.dispersion is None else repr(c.dispersion),
                "" if c.p is None else repr(c.p)] for b in blocks for c in b.cells))


TABLE_PLAN = (
    ("table_static_linear.csv", "static", "linear"),
    ("table_dynamic_gmm.csv", "dynamic", "gmm"),
    ("rf_importance_static.csv", "static", "rf"),
    ("rf_importance_dynamic.csv", "dynamic", "rf"),
)


def emit_tables(blocks: Sequence[ModelBlock], out_dir) -> None:
    """Write, under out_dir/tables, the display table and its _full
    companion for each (setting, model) pair that `blocks` covers, in
    TABLE_PLAN order; every other table is left alone.

    All blocks carrying a fingerprint must agree on it.
    """
    prints = {b.fingerprint for b in blocks if b.fingerprint}
    if len(prints) > 1:
        raise ValueError(f"dataset fingerprint mismatch across fits: {sorted(prints)}")
    out = Path(out_dir) / "tables"
    for fname, setting, model in TABLE_PLAN:
        chosen = [b for b in blocks if b.setting == setting and b.model == model]
        if chosen:
            write_model_table(out / fname, chosen)
            _write_full_precision(out / fname.replace(".csv", "_full.csv"), chosen)


SVG_BAR_COLOR = "#4878a8"
SVG_GRAY = "#b0b0b0"


def emit_importance_figure(decisions: Mapping[str, SeqTestDecision],
                           importance: PermImportanceResult, path) -> Path:
    """Horizontal importance bar chart as deterministic SVG.

    Bars are sorted by importance descending; a bar is gray when its
    p-value exceeds 0.05, colored otherwise; whiskers show +/- one std.
    `decisions` and `importance` must cover identical variable sets.
    """
    means, stds = importance.means, importance.stds
    if not means:
        raise ValueError("no variables to draw")
    if set(means) != set(decisions):
        raise ValueError("decisions and scores cover different variables: "
                         f"{sorted(set(means) ^ set(decisions))}")

    order = sorted(means, key=lambda n: means[n], reverse=True)
    bar_h, gap, left, top = 24, 10, 170, 30
    width = 640
    plot_w = width - left - 40
    height = top + len(order) * (bar_h + gap) + 40
    upper = max(max(means[n] + stds[n] for n in means), 1e-12)
    lower = min(0.0, min(means[n] - stds[n] for n in means))
    span = upper - lower

    def sx(v: float) -> float:
        return left + (v - lower) / span * plot_w

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="18" font-family="sans-serif" font-size="13">'
        'Permutation importance (gray: p &gt; 0.05)</text>',
        f'<line x1="{sx(0):.2f}" y1="{top}" x2="{sx(0):.2f}" '
        f'y2="{height - 30}" stroke="#555" stroke-width="1"/>',
    ]
    for i, name in enumerate(order):
        mean, std = means[name], stds[name]
        p = decisions[name].p_estimate
        y = top + i * (bar_h + gap)
        x0, x1 = sorted((sx(0.0), sx(mean)))
        fill = SVG_GRAY if p > 0.05 else SVG_BAR_COLOR
        lines.append(f'<rect class="bar" x="{x0:.2f}" y="{y}" '
                     f'width="{max(x1 - x0, 0.5):.2f}" height="{bar_h}" fill="{fill}"/>')
        wy = y + bar_h / 2
        lines.append(f'<line x1="{sx(mean - std):.2f}" y1="{wy:.2f}" '
                     f'x2="{sx(mean + std):.2f}" y2="{wy:.2f}" '
                     'stroke="#333" stroke-width="1.5"/>')
        lines.append(f'<text x="{left - 8}" y="{wy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="12">{_xml(name)}</text>')
        lines.append(f'<text x="{x1 + 6:.2f}" y="{wy + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11">{mean:.4f}'
                     f'{star_code(p)}</text>')
    lines.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _xml(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def write_manifest(out_dir, config: Mapping, seed: int, fingerprint: str) -> Path:
    """Write provenance.json: config echo, seed, data fingerprint, and a
    content hash over every artifact file (manifest excluded), which is
    reproducible across runs.
    """
    import hashlib

    out = Path(out_dir)
    digest = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "provenance.json":
            digest.update(str(p.relative_to(out)).encode())
            digest.update(p.read_bytes())
    manifest = {
        "seed": seed,
        "dataset_fingerprint": fingerprint,
        "config": dict(config),
        "content_hash": digest.hexdigest(),
    }
    path = out / "provenance.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
