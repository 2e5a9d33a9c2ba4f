"""The paper's primary contribution: TAG encoding + TAG-join.

Modules:

- ``tag``        — Tuple-Attribute Graph encoding of a relational DB (§3)
- ``spec``       — declarative query specs (join tree + filters + aggregation)
- ``plan``       — TAG plans and GenSteps / Algorithm 1 (§5.1)
- ``reduction``  — UP/DOWN semijoin supersteps per Lemma 5.1 (§5.2)
- ``collection`` — bottom-up collection phase, eager group-by
- ``tagjoin``    — orchestrator (§6.4): subqueries, unions, outer joins
- ``cyclic``     — triangle / n-way cycle with heavy-light splitting (§6.1–6.2)
- ``cartesian``  — Cartesian product via the aggregator vertex (§6.3)
"""
from .plan import build_plan, gensteps, start_alias  # noqa: F401
from .reduction import RunStats, StepTrace, reduce_phase  # noqa: F401
from .spec import Node, Preagg, QuerySpec, Subquery  # noqa: F401
from .tag import TAGGraph  # noqa: F401
from .tagjoin import run_spec  # noqa: F401
