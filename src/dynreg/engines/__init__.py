from .base import Engine, NaiveEngine, make_naive_engine
from .combinators import DivisionEngine, ProductEngine
from .counting import CountEngine, NilpotentEngine
from .dispatch import REGISTRY, eligible_engines, make_auto_engine, route
from .kary import KaryEngine, make_kary_engine
from .language import KaryLanguageEngine, LanguageEngine, WindowLanguageEngine, make_language_engine
from .prefix import VebPrefixEngine, make_prefix_engine
from .semidirect import SemidirectEngine, SemidirectSpec, make_semidirect_engine
from .sg import SgEngine, make_sg_engine
from .windowstats import (
    WindowStatsEngine,
    WindowStatsPlan,
    make_windowstats_engine,
    synthesize_window_plan,
)
from .zg import make_zg_engine

__all__ = [
    "CountEngine",
    "DivisionEngine",
    "Engine",
    "KaryEngine",
    "KaryLanguageEngine",
    "LanguageEngine",
    "NaiveEngine",
    "NilpotentEngine",
    "REGISTRY",
    "ProductEngine",
    "SemidirectEngine",
    "SemidirectSpec",
    "SgEngine",
    "VebPrefixEngine",
    "WindowLanguageEngine",
    "WindowStatsEngine",
    "WindowStatsPlan",
    "eligible_engines",
    "make_auto_engine",
    "make_kary_engine",
    "make_language_engine",
    "make_naive_engine",
    "make_prefix_engine",
    "make_semidirect_engine",
    "make_sg_engine",
    "make_windowstats_engine",
    "make_zg_engine",
    "route",
    "synthesize_window_plan",
]
