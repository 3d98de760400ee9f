"""Runtime query API over the light-weight model IR (paper Sec. IV)."""

from .index import IRIndex
from .query import (
    ModelHandle,
    QueryContext,
    xpdl_init,
    xpdl_init_from_model,
)
from .paths import (
    PathPlan,
    PathStep,
    clear_plan_cache,
    compile_path,
    plan_cache_stats,
    query_all,
    query_first,
)

__all__ = [
    "IRIndex",
    "ModelHandle",
    "PathPlan",
    "PathStep",
    "QueryContext",
    "xpdl_init",
    "xpdl_init_from_model",
    "clear_plan_cache",
    "compile_path",
    "plan_cache_stats",
    "query_all",
    "query_first",
]
