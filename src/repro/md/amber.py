"""Amber-style engine adapter.

Speaks (a faithful subset of) Amber's file dialects:

* ``.mdin``   — ``&cntrl`` namelist input (nstlim, temp0, saltcon, ig, ...)
* ``.RST``    — DISANG torsion restraints (``&rst iat=..., r2=..., rk2=...``)
* ``.rst``    — restart file carrying the final (phi, psi)
* ``.mdinfo`` — the energy summary RepEx stages to the staging area after
  every MD phase ("Amber's .mdinfo files to 'staging area'", paper Sec. 4)
* group files — one line of sander arguments per single-point state, used
  by the S-REMD exchange ("Since we are using Amber's group files, this
  task requires at least as many CPU cores as there are potential exchange
  partners", paper Sec. 4.2)

The physics behind the executables is the toy engine; the formats and the
parse/serialize round-trips are real and tested.

The MD-phase files are written as typed records (:class:`MdinRecord`,
:class:`DisangRecord`, :class:`CoordsRecord`, :class:`MdinfoRecord`,
:class:`TrajectoryRecord`): each holds exactly the values its parser reads
back from the rendered text (see :func:`_decimal`) — so the in-memory
sandbox can hand the record straight back while the on-disk sandbox writes
and re-parses the text, through one adapter code path.  A record whose text
the parser could not read back (a non-finite energy, a ``dt`` without a
plain decimal form) is written as text, so both backends fail alike.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.md.engine import EngineAdapter, EngineError, register_adapter
from repro.md.forcefield import UmbrellaRestraint
from repro.md.integrators import IntegratorParams
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, MDResult, ThermodynamicState

#: Amber atom indices of the backbone torsions in alanine dipeptide.
_TORSION_ATOMS = {"phi": (5, 7, 9, 15), "psi": (7, 9, 15, 17)}
_ATOMS_TO_TORSION = {v: k for k, v in _TORSION_ATOMS.items()}

# Hot-path patterns, compiled once.  ``sander`` namelist entries are always
# ``word = numeric`` so one scan collects every key the parser can ask for;
# first occurrence wins, matching the old per-key ``re.search``.
_NUMBER = r"-?[\d.eE+]+"
_NUMBER_RE = re.compile(_NUMBER)
_MDIN_KV = re.compile(rf"\b(\w+)\s*=\s*({_NUMBER})")
_DISANG_RE = re.compile(r"DISANG=(\S+)")
_DISANG_ENTRY = re.compile(
    r"&rst\s+iat=([\d,\s]+?),\s*r1=.*?r2=\s*(-?[\d.]+)\s*,.*?rk2=\s*([\d.]+)",
    re.DOTALL,
)
_MDINFO_FIELDS = tuple(
    (out_key, key, re.compile(rf"{re.escape(key)}\s*=\s*(-?[\d.]+)"))
    for out_key, key in (
        ("potential_energy", "EPtot"),
        ("restraint_energy", "RESTRAINT"),
        ("torsional_energy", "TORSIONAL"),
        ("bath_energy", "EBATH"),
        ("temperature", "TEMP(K)"),
    )
)
_NSTEP_RE = re.compile(r"NSTEP\s*=\s*(\d+)")
_EAMBER_RE = re.compile(r"EAMBER \(non-restraint\)\s*=\s*(-?[\d.]+)")
_GROUPFILE_RE = re.compile(r"-i (\S+)\s.*-c (\S+)")
_SALTCON_RE = re.compile(r"saltcon\s*=\s*([\d.eE+-]+)")


def _decimal(x: float, places: int) -> float:
    """``x`` as printed with ``places`` decimals and parsed back.

    ``round`` on a Python float is the correctly rounded decimal, as
    ``format(x, ".nf")`` is; NumPy scalars round differently, hence the
    ``float``.
    """
    return round(float(x), places)


def _finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


@functools.lru_cache(maxsize=4096)
def _cntrl_floats(temperature, salt, friction, dt) -> Tuple[float, float, float, bool]:
    """``temp0``, ``saltcon`` and ``gamma_ln`` as the namelist parser reads
    them back, and whether it can read the record at all (finite values,
    a ``dt`` whose ``str`` is one numeric token).  A phase has one set of
    these per lattice point, hence the memo."""
    exact = (
        _finite(temperature, salt, friction)
        and _NUMBER_RE.fullmatch(str(dt)) is not None
    )
    return _decimal(temperature, 6), _decimal(salt, 6), _decimal(friction, 6), exact


def _write(sandbox: Sandbox, name: str, record) -> None:
    """Store ``record``, or only its text when the parser cannot read the
    record's values back from it."""
    if record.exact:
        sandbox.write_record(name, record)
    else:
        sandbox.write_text(name, record.render())


# ---------------------------------------------------------------- records


class MdinRecord(NamedTuple):
    """``{tag}.mdin``: the ``&cntrl`` values the namelist parser reads.

    Floats hold their printed round-trip (``temp0`` etc. at six decimals);
    ``stride`` is both ``ntpr`` and ``ntwx``; ``disang`` names the
    restraint file when the phase is restrained.
    """

    tag: str
    n_steps: int
    dt: float
    temperature: float
    friction: float
    seed: int
    stride: int
    salt_molar: float
    disang: Optional[str] = None
    exact: bool = True

    @classmethod
    def of(
        cls, tag: str, state: ThermodynamicState, params: MDParams, seed: int
    ) -> "MdinRecord":
        ip = params.integrator_params
        temperature, salt, friction, exact = _cntrl_floats(
            state.temperature, state.salt_molar, ip.friction, ip.dt
        )
        return cls(
            tag,
            params.n_steps,
            ip.dt,
            temperature,
            friction,
            int(seed),
            max(1, params.sample_stride),
            salt,
            f"{tag}.RST" if state.restraints else None,
            exact,
        )

    def render(self) -> str:
        """The namelist text ``sander`` reads."""
        restrained = (
            f" &wt type='END' /\nDISANG={self.disang}\n" if self.disang else ""
        )
        return (
            f"{self.tag}: RepEx MD phase\n"
            " &cntrl\n"
            "  imin = 0, irest = 1, ntx = 5,\n"
            f"  nstlim = {self.n_steps}, dt = {self.dt},\n"
            f"  ntt = 3, temp0 = {self.temperature:.6f}, gamma_ln = "
            f"{self.friction:.6f},\n"
            f"  ig = {self.seed},\n"
            f"  ntpr = {self.stride}, ntwx = {self.stride},\n"
            f"  igb = 1, saltcon = {self.salt_molar:.6f},\n"
            f"  nmropt = {1 if self.disang else 0},\n"
            " /\n"
            f"{restrained}"
        )

    @classmethod
    def parse(cls, text: str) -> "MdinRecord":
        tag = text.partition(":")[0]
        kv: Dict[str, str] = {}
        for key, value in _MDIN_KV.findall(text):
            kv.setdefault(key, value)

        def grab(key: str, default=None):
            value = kv.get(key, default)
            if value is None:
                raise EngineError(f"mdin: missing {key}")
            return value

        m = _DISANG_RE.search(text)
        return cls(
            tag=tag,
            n_steps=int(grab("nstlim")),
            dt=float(grab("dt")),
            temperature=float(grab("temp0")),
            friction=float(grab("gamma_ln", "1.0")),
            seed=int(grab("ig")),
            stride=int(grab("ntwx", "50")),
            salt_molar=float(grab("saltcon", "0.0")),
            disang=m.group(1) if m else None,
        )


class DisangRecord(NamedTuple):
    """A DISANG file: torsion restraints at their printed precision
    (centre to 0.1 degree, force constant to 1e-4)."""

    restraints: Tuple[UmbrellaRestraint, ...]
    exact: bool = True

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def of(cls, restraints: Tuple[UmbrellaRestraint, ...]) -> "DisangRecord":
        return cls(
            restraints=tuple(
                UmbrellaRestraint(
                    angle=r.angle,
                    center_deg=_decimal(r.center_deg, 1),
                    k=_decimal(r.k, 4),
                )
                for r in restraints
            ),
            exact=all(_finite(r.center_deg, r.k) for r in restraints),
        )

    def render(self) -> str:
        """One ``&rst`` entry per restraint."""
        lines = []
        for r in self.restraints:
            iat = ",".join(str(i) for i in _TORSION_ATOMS[r.angle])
            c = r.center_deg
            lines.append(
                f" &rst iat={iat}, r1={c - 180.0:.1f}, r2={c:.1f}, "
                f"r3={c:.1f}, r4={c + 180.0:.1f}, rk2={r.k:.4f}, "
                f"rk3={r.k:.4f}, /"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "DisangRecord":
        restraints = []
        for m in _DISANG_ENTRY.finditer(text):
            iat = tuple(int(x) for x in m.group(1).split(",") if x.strip())
            angle = _ATOMS_TO_TORSION.get(iat)
            if angle is None:
                raise EngineError(f"unknown torsion atom selection {iat}")
            restraints.append(
                UmbrellaRestraint(
                    angle=angle,
                    center_deg=float(m.group(2)),
                    k=float(m.group(3)),
                )
            )
        return cls(tuple(restraints))


class CoordsRecord(NamedTuple):
    """A coordinate (``.inpcrd``) or restart (``.rst``) file: the atom count
    and (phi, psi) in radians to seven decimals."""

    n_atoms: int
    phi: float
    psi: float

    @classmethod
    def of(cls, n_atoms: int, coords: np.ndarray) -> "CoordsRecord":
        phi, psi = np.asarray(coords, dtype=float)[:2].tolist()
        return cls(n_atoms, round(phi, 7), round(psi, 7))

    def render(self) -> str:
        """Title, atom count, then (phi, psi)."""
        return (
            "ALA2 toy coordinates (phi, psi in radians)\n"
            f"{self.n_atoms:6d}\n"
            f"{self.phi: 12.7f}{self.psi: 12.7f}\n"
        )

    @classmethod
    def parse(cls, text: str) -> "CoordsRecord":
        lines = text.splitlines()
        try:
            vals = lines[2].split()
            return cls(int(lines[1]), float(vals[0]), float(vals[1]))
        except (IndexError, ValueError):
            raise EngineError("malformed coordinate file") from None

    def coords(self) -> np.ndarray:
        """(phi, psi) as an array."""
        return np.array([self.phi, self.psi])


class MdinfoRecord(NamedTuple):
    """``{tag}.mdinfo``: the energy summary at its printed precision (four
    decimals, two for the temperature)."""

    n_steps: int
    temperature: float
    potential_energy: float
    restraint_energy: float
    eamber: float
    torsional_energy: float
    bath_energy: float
    exact: bool = True

    @classmethod
    def of(cls, result: MDResult) -> "MdinfoRecord":
        fields = (
            result.potential_energy,
            result.restraint_energy,
            result.torsional_energy,
            result.bath_energy,
            result.temperature,
        )
        return cls(
            result.n_steps,
            _decimal(result.temperature, 2),
            _decimal(result.potential_energy, 4),
            _decimal(result.restraint_energy, 4),
            _decimal(result.potential_energy - result.restraint_energy, 4),
            _decimal(result.torsional_energy, 4),
            _decimal(result.bath_energy, 4),
            _finite(*fields),
        )

    def render(self) -> str:
        """The energy summary in ``sander``'s mdinfo layout."""
        return (
            f" NSTEP = {self.n_steps:8d}   TIME(PS) = "
            f"{self.n_steps * 0.002:12.3f}  TEMP(K) = "
            f"{self.temperature:8.2f}  PRESS =     0.0\n"
            f" Etot   = {self.potential_energy:14.4f}  EKtot   = "
            f"{0.0:14.4f}  EPtot      = {self.potential_energy:14.4f}\n"
            f" RESTRAINT  = {self.restraint_energy:14.4f}\n"
            f" EAMBER (non-restraint)  = {self.eamber:14.4f}\n"
            f" TORSIONAL  = {self.torsional_energy:14.4f}  EBATH   = "
            f"{self.bath_energy:14.4f}\n"
        )

    @classmethod
    def parse(cls, text: str) -> "MdinfoRecord":
        values = {}
        for out_key, key, pattern in _MDINFO_FIELDS:
            m = pattern.search(text)
            if m is None:
                raise EngineError(f"mdinfo: missing {key}")
            values[out_key] = float(m.group(1))
        nstep = _NSTEP_RE.search(text)
        eamber = _EAMBER_RE.search(text)
        return cls(
            n_steps=int(nstep.group(1)) if nstep else 0,
            eamber=float(eamber.group(1)) if eamber else float("nan"),
            **values,
        )

    def energies(self) -> Dict[str, float]:
        """What :meth:`AmberAdapter.read_info` reports."""
        return {
            "potential_energy": self.potential_energy,
            "restraint_energy": self.restraint_energy,
            "torsional_energy": self.torsional_energy,
            "bath_energy": self.bath_energy,
            "temperature": self.temperature,
        }


class TrajectoryRecord(NamedTuple):
    """``{tag}.mdcrd``: the sampled (phi, psi) rows.  Nothing in a run reads
    it back, so the in-memory sandbox keeps the samples and renders the
    text only if it is read."""

    samples: np.ndarray

    def render(self) -> str:
        """One (phi, psi) row per sample."""
        lines = [f"{row[0]: 12.7f}{row[1]: 12.7f}" for row in self.samples]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- adapter


@register_adapter
class AmberAdapter(EngineAdapter):
    """Adapter for the simulated ``sander`` / ``pmemd.MPI`` executables."""

    name = "amber"
    executables = ("sander", "pmemd.MPI", "pmemd.cuda")

    # ------------------------------------------------------------------ input

    def write_input(
        self,
        sandbox: Sandbox,
        tag: str,
        coords: np.ndarray,
        state: ThermodynamicState,
        params: MDParams,
        seed: int,
    ) -> List[str]:
        """Write ``{tag}.mdin``, ``{tag}.inpcrd`` and, if restrained,
        ``{tag}.RST``."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (2,):
            raise EngineError(f"coords must have shape (2,), got {coords.shape}")
        mdin = MdinRecord.of(tag, state, params, seed)
        _write(sandbox, f"{tag}.mdin", mdin)
        self._write_coords(sandbox, f"{tag}.inpcrd", coords)
        if mdin.disang is None:
            return [f"{tag}.mdin", f"{tag}.inpcrd"]
        _write(sandbox, mdin.disang, DisangRecord.of(tuple(state.restraints)))
        return [f"{tag}.mdin", f"{tag}.inpcrd", mdin.disang]

    def _write_coords(self, sandbox: Sandbox, name: str, coords: np.ndarray) -> None:
        sandbox.write_record(name, CoordsRecord.of(self.system.n_atoms, coords))

    def _read_coords(self, sandbox: Sandbox, name: str) -> np.ndarray:
        try:
            return sandbox.read_record(name, CoordsRecord).coords()
        except EngineError:
            raise EngineError(f"malformed coordinate file {name!r}") from None

    def _parse_mdin(self, sandbox: Sandbox, tag: str):
        """``(MDParams, ThermodynamicState, seed)`` of ``{tag}.mdin``."""
        try:
            mdin = sandbox.read_record(f"{tag}.mdin", MdinRecord)
        except EngineError as exc:
            raise EngineError(f"{tag}.{exc}") from None
        restraints: Tuple[UmbrellaRestraint, ...] = ()
        if mdin.disang is not None:
            restraints = sandbox.read_record(mdin.disang, DisangRecord).restraints
        params = MDParams(
            n_steps=mdin.n_steps,
            sample_stride=mdin.stride,
            integrator_params=IntegratorParams(dt=mdin.dt, friction=mdin.friction),
        )
        state = ThermodynamicState(
            temperature=mdin.temperature,
            salt_molar=mdin.salt_molar,
            restraints=restraints,
        )
        return params, state, mdin.seed

    # -------------------------------------------------------------- execution

    def run_md(self, sandbox: Sandbox, tag: str) -> MDResult:
        """Simulated ``sander``: parse mdin, integrate, write mdinfo/restart."""
        params, state, seed = self._parse_mdin(sandbox, tag)
        coords = self._read_coords(sandbox, f"{tag}.inpcrd")
        rng = np.random.default_rng(seed)
        result = self.toymd.run(coords, state, params, rng)
        self._write_outputs(sandbox, tag, result)
        return result

    def _write_outputs(self, sandbox: Sandbox, tag: str, result: MDResult) -> None:
        """The three files a finished MD phase leaves: mdinfo, restart and
        trajectory."""
        _write(sandbox, self.info_file(tag), MdinfoRecord.of(result))
        self._write_coords(sandbox, self.restart_file(tag), result.final_coords)
        sandbox.write_record(f"{tag}.mdcrd", TrajectoryRecord(result.trajectory))

    # ----------------------------------------------------------------- output

    def read_info(self, sandbox: Sandbox, tag: str) -> Dict[str, float]:
        """Parse ``{tag}.mdinfo`` (the exchange phase's input)."""
        try:
            return sandbox.read_record(self.info_file(tag), MdinfoRecord).energies()
        except EngineError as exc:
            raise EngineError(f"{tag}.{exc}") from None

    def read_restart(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Final (phi, psi) of the MD phase."""
        return self._read_coords(sandbox, self.restart_file(tag))

    def read_trajectory(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Sampled (phi, psi) trajectory of the MD phase, shape (n, 2)."""
        text = sandbox.read_text(f"{tag}.mdcrd").strip()
        if not text:
            return np.empty((0, 2))
        rows = [
            [float(x) for x in line.split()] for line in text.splitlines()
        ]
        return np.asarray(rows)

    # ------------------------------------------------------- single-point (S-REMD)

    def write_groupfile(
        self,
        sandbox: Sandbox,
        tag: str,
        coords: np.ndarray,
        states: Sequence[ThermodynamicState],
    ) -> List[str]:
        """Write a group file evaluating ``coords`` in every state.

        One sander instance per state, exactly as the paper runs the
        salt-concentration single-point energies.
        """
        files = []
        group_lines = []
        for j, state in enumerate(states):
            sp_tag = f"{tag}.sp{j}"
            mdin = [
                f"{sp_tag}: single point energy",
                " &cntrl",
                "  imin = 1, maxcyc = 0,",
                f"  igb = 1, saltcon = {state.salt_molar:.6f},",
                f"  nmropt = {1 if state.restraints else 0},",
                " /",
            ]
            if state.restraints:
                mdin.append(" &wt type='END' /")
                mdin.append(f"DISANG={sp_tag}.RST")
                sandbox.write_text(
                    f"{sp_tag}.RST",
                    DisangRecord.of(tuple(state.restraints)).render(),
                )
                files.append(f"{sp_tag}.RST")
            sandbox.write_text(f"{sp_tag}.mdin", "\n".join(mdin) + "\n")
            files.append(f"{sp_tag}.mdin")
            group_lines.append(
                f"-O -i {sp_tag}.mdin -o {sp_tag}.mdout -c {tag}.inpcrd "
                f"-inf {sp_tag}.mdinfo"
            )
        self._write_coords(sandbox, f"{tag}.inpcrd", np.asarray(coords))
        files.append(f"{tag}.inpcrd")
        sandbox.write_text(f"{tag}.groupfile", "\n".join(group_lines) + "\n")
        files.append(f"{tag}.groupfile")
        return files

    def run_single_point_group(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Execute every entry of ``{tag}.groupfile``; returns the energies.

        Also writes ``{tag}.matrix`` (one energy per line), the file staged
        back for the exchange step.
        """
        group = sandbox.read_text(f"{tag}.groupfile").strip().splitlines()
        energies = []
        for line in group:
            m = _GROUPFILE_RE.search(line)
            if m is None:
                raise EngineError(f"malformed groupfile line: {line!r}")
            mdin_name, coord_name = m.group(1), m.group(2)
            sp_tag = mdin_name[: -len(".mdin")]
            text = sandbox.read_text(mdin_name)
            salt = float(_SALTCON_RE.search(text).group(1))
            restraints: Tuple[UmbrellaRestraint, ...] = ()
            dm = _DISANG_RE.search(text)
            if dm:
                disang = sandbox.read_text(dm.group(1))
                restraints = DisangRecord.parse(disang).restraints
            coords = self._read_coords(sandbox, coord_name)
            state = ThermodynamicState(
                temperature=300.0,  # irrelevant for a single point
                salt_molar=salt,
                restraints=restraints,
            )
            e = self.toymd.single_point_energy(coords, state)
            energies.append(e)
            sandbox.write_text(
                f"{sp_tag}.mdinfo",
                f" NSTEP = 0\n Etot   = {e:14.4f}  EPtot      = {e:14.4f}\n"
                f" RESTRAINT  = {0.0:14.4f}\n",
            )
        arr = np.asarray(energies)
        sandbox.write_text(
            f"{tag}.matrix", "\n".join(f"{e:.8f}" for e in energies) + "\n"
        )
        return arr

    def read_energy_row(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Read the staged single-point energy row written by the group run."""
        text = sandbox.read_text(f"{tag}.matrix").strip()
        return np.asarray([float(x) for x in text.splitlines()])
