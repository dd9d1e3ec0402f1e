"""Experiment result containers, JSON round-trips and ASCII rendering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = ["Series", "ExperimentResult", "render_table", "render_series_table"]


@dataclass
class Series:
    """One named numeric curve (e.g. ``x_I^max (imprecise)`` of Fig. 1)."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError(
                f"series {self.name!r}: times shape {self.times.shape} != "
                f"values shape {self.values.shape}"
            )

    @property
    def final(self) -> float:
        return float(self.values[-1])

    def at(self, t: float) -> float:
        """Linear interpolation of the series at time ``t``."""
        return float(np.interp(t, self.times, self.values))

    def to_json_dict(self) -> dict:
        """The ``{"times": [...], "values": [...]}`` payload of one curve."""
        return {"times": self.times.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_json(cls, name: str, payload: dict) -> "Series":
        """Rebuild a series from its :meth:`to_json_dict` payload."""
        if not {"times", "values"} <= set(payload):
            raise ValueError(
                f"series {name!r}: payload needs 'times' and 'values' keys, "
                f"got {sorted(payload)}"
            )
        return cls(name=name, times=payload["times"], values=payload["values"])


@dataclass
class ExperimentResult:
    """One reproduced figure/table with its provenance.

    Attributes
    ----------
    experiment_id:
        Identifier of the figure or result (``"fig1"``, ``"fig7"``,
        ``"gps_weights"``); it names the bench's archive files under
        ``benchmarks/results/``.
    title:
        Human-readable description.
    parameters:
        The parameter record used, archived with the result as its
        provenance.
    series:
        The regenerated curves keyed by name.
    findings:
        Scalar results (switch times, optima, inclusion fractions, ...).
    notes:
        Free text: observed vs paper-expected shape.
    """

    experiment_id: str
    title: str
    parameters: Dict[str, object] = field(default_factory=dict)
    series: Dict[str, Series] = field(default_factory=dict)
    findings: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, times, values) -> Series:
        series = Series(name=name, times=times, values=values)
        self.series[name] = series
        return series

    def add_finding(self, name: str, value: float) -> None:
        self.findings[name] = float(value)

    def add_note(self, text: str) -> None:
        self.notes.append(str(text))

    def to_json(self) -> str:
        """Serialise (series down-sampled to lists) for archival."""
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
            "findings": self.findings,
            "notes": self.notes,
            "series": {
                name: s.to_json_dict() for name, s in self.series.items()
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, payload: Union[str, dict]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output (text or parsed dict).

        The round-trip is lossless for everything :meth:`to_json` keeps:
        series become float arrays again, findings floats, parameters stay
        in their JSON form (arrays/tuples were already listified on the
        way out).  Required by the :mod:`repro.scenarios` disk cache.
        """
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict):
            raise TypeError("payload must be a JSON object (dict or its text)")
        for key in ("experiment_id", "title"):
            if key not in payload:
                raise ValueError(f"payload is missing the {key!r} field")
        result = cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload["title"]),
            parameters=dict(payload.get("parameters", {})),
            findings={k: float(v) for k, v in payload.get("findings", {}).items()},
            notes=[str(n) for n in payload.get("notes", [])],
        )
        for name, series_payload in payload.get("series", {}).items():
            result.series[name] = Series.from_json(name, series_payload)
        return result

    def render(self, time_points: Optional[Sequence[float]] = None) -> str:
        """Fixed-width text block: header, findings, sampled series."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.parameters:
            params = ", ".join(f"{k}={_fmt(v)}" for k, v in self.parameters.items())
            lines.append(f"params: {params}")
        if self.findings:
            for key in sorted(self.findings):
                lines.append(f"  {key} = {self.findings[key]:.6g}")
        if self.series:
            lines.append(render_series_table(self.series, time_points=time_points))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, (np.ndarray, tuple)):
        return np.asarray(value).tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 float_format: str = "{:.6g}") -> str:
    """Render a fixed-width ASCII table."""
    headers = [str(h) for h in headers]
    text_rows = []
    for row in rows:
        text_rows.append(
            [
                float_format.format(cell) if isinstance(cell, (float, np.floating))
                else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(line)
    body = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in text_rows
    ]
    return "\n".join([line, rule] + body)


def render_series_table(series: Dict[str, Series],
                        time_points: Optional[Sequence[float]] = None,
                        max_rows: int = 12) -> str:
    """Tabulate several series on a common set of sampling times."""
    if not series:
        return "(no series)"
    names = sorted(series)
    if time_points is None:
        reference = series[names[0]].times
        if reference.shape[0] <= max_rows:
            time_points = reference
        else:
            idx = np.linspace(0, reference.shape[0] - 1, max_rows).astype(int)
            time_points = reference[idx]
    headers = ["t"] + names
    rows = []
    for t in np.asarray(time_points, dtype=float):
        rows.append([float(t)] + [s.at(t) for s in (series[n] for n in names)])
    return render_table(headers, rows, float_format="{:.5g}")
