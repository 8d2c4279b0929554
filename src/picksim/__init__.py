"""Deterministic warehouse order-picking and replenishment simulator.

The package models a pallet warehouse in which pickers assemble
truck-grouped customer orders while a forklift replenishes storage
slots, and compares storage policies (fixed, random, fixed-zone),
slot-allocation rules (homogeneous, demand-proportional) and picking
modes (whole-area routes vs zone-segmented routes) on total weekly
picking time.  Runs are discrete-event simulations that are bit-for-bit
reproducible for a given seed.
"""

from .allocation import AllocationRule, SlotMap, allocate_slots, assign_physical_slots
from .config import (
    ReplenishSettings,
    SimConfig,
    WalkSettings,
    config_from_dict,
    load_config,
)
from .errors import (
    InfeasibleRunError,
    InputDataError,
    ParseError,
    PicksimError,
    SchedulePastError,
    SimulationAbort,
    ValidationError,
)
from .events import Engine, Event, PartialPick, Replenish, StartPickOrder
from .experiment import (
    Comparison,
    DataPaths,
    RunResult,
    ScenarioSpec,
    ScenarioSummary,
    WeekOutcome,
    compare_scenarios,
    demand_per_week,
    derive_seed,
    run_scenario,
    run_week,
    split_weeks,
    summarize_results,
    write_paired_csv,
    write_results_csv,
    write_summary_csv,
)
from .picking import (
    Order,
    OrderLine,
    PickingMode,
    PickingSession,
    PlanEntry,
    RouteStop,
    handling_time,
    load_orders,
    prepare_orders,
    save_orders,
)
from .replenishment import Replenisher, ReplenishmentSampler
from .stats import PairedTest, StatsSummary, gap, paired_test, summarize
from .storage import Assignment, PolicyKind, StoragePolicy, place_initial
from .warehouse import (
    ELEVATOR_ID,
    ENTRANCE_ID,
    SPECIAL_AREA_ID,
    Equipment,
    Item,
    Location,
    PalletRecord,
    ProcessTotals,
    Warehouse,
    aisle_turns,
    load_inventory,
    load_items,
    load_layout,
    save_inventory,
    save_items,
    save_layout,
    travel_time,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationRule", "SlotMap", "allocate_slots", "assign_physical_slots",
    "ReplenishSettings", "SimConfig", "WalkSettings", "config_from_dict",
    "load_config",
    "generate_data",
    "InfeasibleRunError", "InputDataError", "ParseError", "PicksimError",
    "SchedulePastError", "SimulationAbort", "ValidationError",
    "Engine", "Event", "PartialPick", "Replenish", "StartPickOrder",
    "Comparison", "DataPaths", "RunResult", "ScenarioSpec", "ScenarioSummary",
    "WeekOutcome", "compare_scenarios", "demand_per_week", "derive_seed",
    "run_scenario", "run_week", "split_weeks", "summarize_results",
    "write_paired_csv", "write_results_csv", "write_summary_csv",
    "Order", "OrderLine", "PickingMode", "PickingSession", "PlanEntry",
    "RouteStop", "handling_time", "load_orders", "prepare_orders", "save_orders",
    "Replenisher", "ReplenishmentSampler",
    "PairedTest", "StatsSummary", "gap", "paired_test", "summarize",
    "Assignment", "PolicyKind", "StoragePolicy", "place_initial",
    "ELEVATOR_ID", "ENTRANCE_ID", "SPECIAL_AREA_ID", "Equipment", "Item", "Location",
    "PalletRecord", "ProcessTotals", "Warehouse", "aisle_turns", "load_inventory",
    "load_items", "load_layout", "save_inventory", "save_items", "save_layout",
    "travel_time",
    "__version__",
]


def __getattr__(name: str):
    # the dataset generator is loaded on first use, not by every import
    if name == "generate_data":
        from .datagen import generate_data

        return generate_data
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
