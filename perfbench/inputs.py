"""Seeded inputs of the serving benchmark.

Every input the benchmark sends is generated here, from the seed alone,
so editing the program under ``src/`` cannot change what is measured:

* the alert streams and training histories of the table-mode tenants;
* the session configurations, with the paper's Table 2 payoffs and
  audit costs written out below;
* the 14-day foreign-schema dump of the onboard workload and its
  mapping JSON.

History days and serving days draw from one daily volume and one
diurnal arrival profile, so a tenant's audit budget lasts each day and a
compiled policy table covers every serving alert.
"""

from __future__ import annotations

import csv
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

#: Table 2 of the paper: (U_dc, U_du, U_ac, U_au) per alert type.
TABLE2_PAYOFFS: dict[int, tuple[float, float, float, float]] = {
    1: (100.0, -400.0, -2000.0, 400.0),
    2: (150.0, -500.0, -2250.0, 400.0),
    3: (150.0, -600.0, -2500.0, 450.0),
    4: (300.0, -800.0, -2500.0, 600.0),
    5: (400.0, -1000.0, -3000.0, 650.0),
    6: (600.0, -1500.0, -5000.0, 700.0),
    7: (700.0, -2000.0, -6000.0, 800.0),
}

#: "We set the audit cost per alert in all types to 1."
AUDIT_COST = 1.0

#: The paper's seven-type budget.
BUDGET = 50.0

#: Table 1 of the paper: daily alert count (mean, std) per type. Only the
#: type mix is kept; :data:`ALERTS_PER_DAY` sets the volume.
TABLE1_COUNTS: dict[int, tuple[float, float]] = {
    1: (196.57, 17.30),
    2: (29.02, 5.56),
    3: (140.46, 23.23),
    4: (10.84, 3.73),
    5: (25.43, 4.51),
    6: (15.14, 4.10),
    7: (43.27, 6.45),
}

#: Mean alerts per tenant-day in the table-mode workloads.
ALERTS_PER_DAY = 600

#: Relative arrival intensity of each hour of the day (hospital shifts:
#: quiet nights, a morning ramp, a daytime plateau, an evening tail).
HOURLY_WEIGHTS = (
    0.30, 0.25, 0.20, 0.20, 0.25, 0.40, 0.80, 1.40,
    1.90, 2.10, 2.10, 2.00, 1.70, 1.90, 2.00, 1.90,
    1.70, 1.40, 1.10, 0.90, 0.75, 0.60, 0.45, 0.35,
)

#: Training days each table-mode tenant opens with. Compile time grows
#: with the history; three days keep a compile near half a second, and a
#: run compiles about twenty tables (set-ups, recoveries, the reference).
TABLE_HISTORY_DAYS = 3

#: Days of the foreign dump, and how many of them train the tenant.
DUMP_DAYS = 14
DUMP_TRAIN_DAYS = 7

#: Foreign access rows per dump day, and how many of them are engineered
#: relationship accesses (the rest are routine). 1,200 alerts a day puts
#: ~510 same-last-name alerts in a day; at an expected ~746 of one type a
#: day the program's reciprocal-moment series underflows and the solver
#: divides by zero, so that volume is out of reach until it is fixed.
DUMP_ROWS_PER_DAY = 20_000
DUMP_ALERTS_PER_DAY = 1200

_STREAM_HISTORY = 1
_STREAM_SERVING = 2
_STREAM_DUMP = 3


def payoffs():
    """Table 2 as :class:`~repro.core.payoffs.PayoffMatrix` objects."""
    from repro.core.payoffs import PayoffMatrix

    return {
        type_id: PayoffMatrix(u_dc=dc, u_du=du, u_ac=ac, u_au=au)
        for type_id, (dc, du, ac, au) in TABLE2_PAYOFFS.items()
    }


def table_config(tenant: str, seed: int):
    """A table-mode tenant: compiled policy table, exact solution cache."""
    from repro.api.v1 import SessionConfig

    return SessionConfig(
        tenant=tenant,
        budget=BUDGET,
        payoffs=payoffs(),
        costs={type_id: AUDIT_COST for type_id in TABLE2_PAYOFFS},
        backend="analytic",
        seed=seed,
        policy_table=True,
    )


def cache_config(tenant: str, seed: int):
    """A cache-mode tenant on the certified cache (steps 0.5 / 1.0)."""
    from repro.api.v1 import SessionConfig

    return SessionConfig(
        tenant=tenant,
        budget=BUDGET,
        payoffs=payoffs(),
        costs={type_id: AUDIT_COST for type_id in TABLE2_PAYOFFS},
        backend="analytic",
        seed=seed,
        cache_budget_step=0.5,
        cache_rate_step=1.0,
        cache_error_budget=1e-6,
    )


def _arrival_times(rng: np.random.Generator, n: int) -> np.ndarray:
    weights = np.asarray(HOURLY_WEIGHTS)
    hours = rng.choice(24, size=n, p=weights / weights.sum())
    return np.sort(hours * 3600.0 + rng.uniform(0.0, 3600.0, size=n))


def _type_counts(rng: np.random.Generator, volume: float) -> dict[int, int]:
    scale = volume / sum(mean for mean, _std in TABLE1_COUNTS.values())
    return {
        type_id: max(1, int(round(rng.normal(mean * scale, std * scale))))
        for type_id, (mean, std) in TABLE1_COUNTS.items()
    }


def tenant_day(seed: int, tenant_index: int, day: int, stream: int):
    """One tenant-day: ``{type_id: sorted arrival times}``."""
    rng = np.random.default_rng([seed, stream, tenant_index, day])
    return {
        type_id: _arrival_times(rng, count)
        for type_id, count in _type_counts(rng, ALERTS_PER_DAY).items()
    }


def training_history(seed: int, tenant_index: int, days: int = TABLE_HISTORY_DAYS):
    """Per-type lists of past day arrays (the session-opening history)."""
    history: dict[int, list[list[float]]] = {t: [] for t in TABLE2_PAYOFFS}
    for day in range(days):
        for type_id, times in tenant_day(
            seed, tenant_index, day, _STREAM_HISTORY
        ).items():
            history[type_id].append(times.tolist())
    return history


def serving_day(seed: int, tenants: list[str], day: int):
    """One serving day of every tenant, merged chronologically.

    Returns ``[(time_of_day, tenant, type_id), ...]``; ties break by
    tenant order, then type id, so the order is a pure function of the
    seed.
    """
    merged = []
    for index, tenant in enumerate(tenants):
        for type_id, times in tenant_day(
            seed, index, day, _STREAM_SERVING
        ).items():
            merged.extend((float(t), index, type_id) for t in times)
    merged.sort()
    return [(t, tenants[index], type_id) for t, index, type_id in merged]


def placed_tenants(workers: int = 2, per_worker: int = 2) -> list[str]:
    """Tenant names placed ``per_worker`` to a shard of the cluster ring.

    Names are probed in order against the ring ``repro serve --cluster
    --workers N`` builds, so every shard serves the same number of
    tenants.
    """
    from repro.api.hashring import HashRing

    ring = HashRing([f"shard-{index}" for index in range(workers)])
    placed: dict[str, list[str]] = {worker: [] for worker in ring.workers}
    probe = 0
    while any(len(names) < per_worker for names in placed.values()):
        name = f"hospital-{probe}"
        owner = ring.owner(name)
        if len(placed[owner]) < per_worker:
            placed[owner].append(name)
        probe += 1
    return [name for index in range(per_worker) for name in (
        placed[worker][index] for worker in ring.workers
    )]


# ----------------------------------------------------------------------
# The foreign-schema dump of the onboard workload
# ----------------------------------------------------------------------

#: How the site's tables project onto the canonical roles. Column names
#: deliberately differ from the canonical ones.
DUMP_MAPPING = {
    "name": "perfbench-his",
    "patient_key": "hn",
    "admission_key": "an",
    "visit_key": "vn",
    "employees": {"table": "staff", "columns": {
        "employee_id": {"column": "emp_no", "transform": "strip"},
        "surname": {"column": "family_name", "transform": "strip"},
        "department": {"column": "unit", "transform": "strip"},
        "address": {"column": "home", "transform": "strip"},
        "geo_x": {"column": "home_x", "transform": "float"},
        "geo_y": {"column": "home_y", "transform": "float"},
    }},
    "patients": {"table": "person", "columns": {
        "surname": {"column": "family_name", "transform": "strip"},
        "address": {"column": "home", "transform": "strip"},
        "geo_x": {"column": "home_x", "transform": "float"},
        "geo_y": {"column": "home_y", "transform": "float"},
        "employee_id": {"column": "emp_no", "transform": "strip"},
    }},
    "visits": {"table": "visit", "columns": {}},
    "accesses": {"table": "audit_trail", "columns": {
        "employee_id": {"column": "emp_no", "transform": "strip"},
        "day": {"column": "event_date", "transform": "iso_date_to_day"},
        "time_of_day": {"column": "event_time", "transform": "hhmmss_to_seconds"},
    }},
}

_EPOCH = date(2024, 3, 1)

#: Staff live on a 1-mile lattice in the west half of a 20-mile city and
#: routine patients in the east half, so no routine access fires a rule
#: and each engineered relative fires exactly its Table 1 combination.
_LATTICE_COLUMNS = 10
_LATTICE_ROWS = 20
_DEPARTMENTS = 20
_ROUTINE_PATIENTS = 20_000


def _routine_home(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(11.0, 20.0)), float(rng.uniform(0.0, 20.0))


def dump_tables(seed: int) -> dict[str, list[dict[str, str]]]:
    """The four foreign tables of the onboard dump, from ``seed`` alone.

    Every employee gets one engineered relative per Table 1 type except
    the coworker type, which accesses another employee of the same unit:
    a namesake living far away (type 1), a neighbor 0.2 miles off
    (type 3), a lodger at the same address whose geocode is a blunder
    miles away (type 4), a namesake neighbor (type 5), a namesake at the
    same address with a blundered geocode (type 6), and a namesake at
    the same address and location (type 7).
    """
    rng = np.random.default_rng([seed, _STREAM_DUMP])
    n_staff = _LATTICE_COLUMNS * _LATTICE_ROWS
    staff, person, visit = [], [], []
    homes = []

    def add_person(family, home, x, y, emp_no=""):
        hn = f"HN{len(person):07d}"
        person.append({
            "hn": hn, "family_name": family, "home": home,
            "home_x": repr(x), "home_y": repr(y), "emp_no": emp_no,
        })
        visit.append({"vn": f"V{len(visit):07d}", "an": f"A{len(visit):07d}", "hn": hn})
        return visit[-1]["vn"]

    staff_visit = []
    for index in range(n_staff):
        x = 0.5 + index % _LATTICE_COLUMNS
        y = 0.5 + index // _LATTICE_COLUMNS
        home = f"{100 + index} Lattice Way"
        homes.append((home, x, y))
        staff.append({
            "emp_no": f"E{index:04d}", "family_name": f"Staffname{index:04d}",
            "unit": f"Unit-{index % _DEPARTMENTS:02d}", "home": home,
            "home_x": repr(x), "home_y": repr(y),
        })
        staff_visit.append(add_person(
            f"Staffname{index:04d}", home, x, y, emp_no=f"E{index:04d}"
        ))

    relatives: dict[int, list[str]] = {t: [] for t in TABLE1_COUNTS if t != 2}
    for index, (home, x, y) in enumerate(homes):
        family = f"Staffname{index:04d}"
        far_x, far_y = _routine_home(rng)
        relatives[1].append(add_person(family, f"{index} Far Road", far_x, far_y))
        relatives[3].append(add_person(
            f"Neighbor{index:04d}", f"{index} Near Lane", x + 0.2, y
        ))
        blunder_x, blunder_y = _routine_home(rng)
        relatives[4].append(add_person(f"Lodger{index:04d}", home, blunder_x, blunder_y))
        relatives[5].append(add_person(family, f"{index} Close Court", x, y + 0.3))
        blunder_x, blunder_y = _routine_home(rng)
        relatives[6].append(add_person(family, home, blunder_x, blunder_y))
        relatives[7].append(add_person(family, home, x + 0.05, y))

    routine = []
    for index in range(_ROUTINE_PATIENTS):
        x, y = _routine_home(rng)
        routine.append(add_person(
            f"Patient{index:05d}", f"{index} East Street", x, y
        ))
    routine_visits = np.asarray(routine)

    audit_trail = []
    for day in range(DUMP_DAYS):
        event_date = (_EPOCH + timedelta(days=day)).isoformat()
        counts = _type_counts(rng, DUMP_ALERTS_PER_DAY)
        n_routine = DUMP_ROWS_PER_DAY - sum(counts.values())
        accessors = [rng.integers(n_staff, size=n_routine)]
        visits = [routine_visits[rng.integers(len(routine), size=n_routine)]]
        for type_id, count in counts.items():
            who = rng.integers(n_staff, size=count)
            accessors.append(who)
            if type_id == 2:
                # A coworker: another employee of the same unit.
                step = rng.integers(1, n_staff // _DEPARTMENTS, size=count)
                other = (who + step * _DEPARTMENTS) % n_staff
                visits.append(np.asarray([staff_visit[i] for i in other]))
            else:
                visits.append(np.asarray([relatives[type_id][i] for i in who]))
        accessors = np.concatenate(accessors)
        visits = np.concatenate(visits)
        seconds = _arrival_times(rng, len(accessors)).astype(int)
        order = rng.permutation(len(accessors))
        for slot, row in enumerate(order):
            second = int(seconds[slot])
            audit_trail.append({
                "emp_no": f"E{int(accessors[row]):04d}",
                "vn": str(visits[row]),
                "event_date": event_date,
                "event_time": (
                    f"{second // 3600:02d}:{second % 3600 // 60:02d}:"
                    f"{second % 60:02d}"
                ),
            })
    return {"staff": staff, "person": person, "visit": visit,
            "audit_trail": audit_trail}


def write_dump(root: Path, seed: int) -> int:
    """Write the dump as CSV tables plus ``mapping.json``; returns rows."""
    root.mkdir(parents=True, exist_ok=True)
    tables = dump_tables(seed)
    for name, rows in tables.items():
        with open(root / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    (root / "mapping.json").write_text(json.dumps(DUMP_MAPPING), encoding="utf-8")
    return len(tables["audit_trail"])
