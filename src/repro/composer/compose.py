"""Model composition: from distributed descriptors to one concrete tree.

This implements the core of the paper's Sec. IV processing pipeline:

1. browse the repository for all recursively referenced descriptors,
2. resolve ``extends`` inheritance for every referenced meta-model,
3. instantiate ``type=`` references by folding the (inheritance-resolved)
   meta-model under the referencing instance element,
4. build the parameter environment scope by scope, substitute param
   references in attribute values (``frequency="cfrq"``), check declared
   constraints,
5. expand homogeneous groups (``prefix``/``quantity``) into members,
6. verify interconnect endpoint references.

The result is a :class:`ComposedModel`: a self-contained concrete tree plus
provenance and diagnostics — the input for static analysis, microbenchmark
planning and runtime-IR emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..diagnostics import (
    CompositionError,
    DiagnosticSink,
    ResolutionError,
)
from ..groups import expand_groups
from ..inherit import InheritanceEngine, merge_element
from ..model import (
    Const,
    Group,
    Interconnect,
    ModelElement,
    Param,
)
from ..obs import NULL_OBSERVER, get_observer
from ..params import Evaluator, ParamSpace, Value, declared_value
from ..repository import ModelRepository
from ..units import Quantity

#: Attribute names that are never substituted with param values.
_NO_SUBSTITUTE = frozenset(
    {
        "name",
        "id",
        "type",
        "extends",
        "resolved_extends",
        "prefix",
        "head",
        "tail",
        "mb",
        "instruction_set",
        "power_domain",
        "path",
        "command",
        "file",
        "expanded",
        "rank",
        "member_count",
        "role",
        "endian",
        "replacement",
        "write_policy",
        "value",
        "range",
        "configurable",
        "expr",
        "switchoffCondition",
        "enableSwitchOff",
    }
)


@dataclass
class ComposedModel:
    """A fully composed concrete model plus provenance.

    ``repository`` and ``sink`` are the composing session's collaborators,
    not part of the artifact: a pickled model leaves them out (they would
    drag every descriptor and diagnostic of the session along, making the
    bytes depend on build order), and an unpickled one has them as None
    until the loading session attaches its own.
    """

    identifier: str
    root: ModelElement
    repository: ModelRepository
    sink: DiagnosticSink
    referenced: tuple[str, ...] = ()
    unresolved: tuple[str, ...] = ()
    #: Param environments per element path, for inspection/debugging.
    environments: dict[str, dict[str, Value]] = field(default_factory=dict)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["repository"], state["sink"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state, repository=None, sink=None)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.root.walk() if e.kind == kind)

    def elements(self, kind: str) -> list[ModelElement]:
        return [e for e in self.root.walk() if e.kind == kind]

    def by_id(self, ident: str) -> ModelElement | None:
        for e in self.root.walk():
            if e.ident == ident:
                return e
        return None


class Composer:
    """Composes concrete system models from a repository."""

    def __init__(
        self,
        repository: ModelRepository,
        *,
        expand: bool = True,
        substitute: bool = True,
    ) -> None:
        self.repository = repository
        self.inherit = InheritanceEngine(repository)
        self.expand = expand
        self.substitute = substitute
        self._obs = NULL_OBSERVER

    # -- public ---------------------------------------------------------------
    def compose(
        self,
        identifier: str,
        sink: DiagnosticSink | None = None,
        *,
        bindings: Mapping[str, Value] | None = None,
    ) -> ComposedModel:
        """Compose the concrete model named ``identifier``.

        ``bindings`` pre-binds configurable params (e.g. fixing the K20c
        L1/shm split) before substitution and expansion.
        """
        obs = self._obs = get_observer()
        obs.count("compose.runs")
        sink = sink if sink is not None else DiagnosticSink()
        closure = self.repository.load_closure(identifier, sink)
        if identifier not in closure:
            raise ResolutionError(
                f"cannot compose unknown model {identifier!r}", sink.diagnostics
            )
        root = closure[identifier].model.clone()
        unresolved = sorted(
            self.repository.references_of(root)
            - set(self.repository.index())
        )
        composed = ComposedModel(
            identifier=identifier,
            root=root,
            repository=self.repository,
            sink=sink,
            referenced=tuple(sorted(closure)),
            unresolved=tuple(unresolved),
        )
        env0: dict[str, Value] = dict(bindings or {})
        new_root = self._process(root, env0, sink, composed, type_stack=())
        new_root.parent = None
        composed.root = new_root
        self._verify_interconnects(composed, sink)
        if obs.enabled:
            obs.count("compose.descriptors", len(closure))
            expanded = [
                e
                for e in new_root.walk()
                if e.attrs.get("expanded") == "true"
            ]
            obs.count("compose.groups.expanded", len(expanded))
            obs.count(
                "compose.groups.members",
                sum(int(g.attrs.get("member_count", 0)) for g in expanded),
            )
            obs.count("compose.elements", sum(1 for _ in new_root.walk()))
        return composed

    # -- pipeline --------------------------------------------------------------
    def _process(
        self,
        elem: ModelElement,
        env: dict[str, Value],
        sink: DiagnosticSink,
        composed: ComposedModel,
        type_stack: tuple[str, ...],
    ) -> ModelElement:
        elem, type_stack = self._instantiate_type(elem, sink, type_stack)
        if elem.extends:
            elem = self.inherit.resolve_inline(elem, sink)

        env = self._extend_env(elem, env)
        if self.substitute:
            self._substitute_attrs(elem, env, sink)
        self._check_constraints(elem, env, sink, composed)

        # Recurse (children may add their own scopes).  The extended
        # type_stack travels down so reference cycles through meta-model
        # content are caught.
        new_children = []
        for child in elem.children:
            new_children.append(
                self._process(child, dict(env), sink, composed, type_stack)
            )
        elem.children = []
        for c in new_children:
            elem.add(c)

        if (
            self.expand
            and isinstance(elem, Group)
            and elem.is_homogeneous()
            and elem.attrs.get("expanded") != "true"
        ):
            elem = expand_groups(elem, env, sink)
        return elem

    # -- type instantiation -------------------------------------------------------
    def _instantiate_type(
        self,
        elem: ModelElement,
        sink: DiagnosticSink,
        type_stack: tuple[str, ...],
    ) -> tuple[ModelElement, tuple[str, ...]]:
        """Fold the referenced meta-model under ``elem``, once.

        Returns the (possibly merged) element and the type stack to use when
        descending into its children — extended by this type reference so
        cycles through meta-model content are detected instead of looping.
        """
        type_ref = elem.type_ref
        if not type_ref or type_ref not in self.repository.index():
            return elem, type_stack  # category tag or no type: leave as-is
        if type_ref in type_stack:
            chain = " -> ".join(type_stack + (type_ref,))
            raise CompositionError(f"type reference cycle: {chain}")
        self._obs.count("compose.types.instantiated")
        meta = self.inherit.resolve(type_ref, sink)
        if meta.kind == elem.kind:
            merged = merge_element(meta, elem)
        else:
            # Kind mismatch (e.g. <installed type="CUDA_6.0"> referencing a
            # software descriptor): keep the instance's kind, import the
            # meta's attributes (without clobbering) and children.
            merged = elem.clone()
            for k, v in meta.attrs.items():
                if k not in merged.attrs and k != "name":
                    merged.attrs[k] = v
            for child in meta.children:
                merged.add(child.clone())
        # Instance identity prevails; remember what it was made from.
        merged.attrs["type"] = type_ref
        if elem.ident is not None:
            merged.attrs["id"] = elem.ident
            merged.attrs.pop("name", None)
        return merged, type_stack + (type_ref,)

    # -- parameter environment --------------------------------------------------------
    def _extend_env(
        self, elem: ModelElement, env: dict[str, Value]
    ) -> dict[str, Value]:
        local: dict[str, Value] = {}
        for child in elem.children:
            if isinstance(child, (Const, Param)) and child.name:
                v = declared_value(child, elem.registry)
                if v is not None:
                    local[child.name] = v
        if local:
            env = dict(env)
            env.update(local)
        return env

    def _substitute_attrs(
        self,
        elem: ModelElement,
        env: dict[str, Value],
        sink: DiagnosticSink,
    ) -> None:
        if isinstance(elem, (Const, Param)):
            return  # declarations keep their symbolic form
        from ..units import is_unit_attribute, unit_attribute_for

        for attr in list(elem.attrs):
            if attr in _NO_SUBSTITUTE or is_unit_attribute(attr):
                continue
            raw = elem.attrs[attr].strip()
            if raw in env:
                value = env[raw]
                if isinstance(value, Quantity):
                    elem.set_quantity(attr, value)
                else:
                    elem.attrs[attr] = "true" if value else "false"

    def _check_constraints(
        self,
        elem: ModelElement,
        env: dict[str, Value],
        sink: DiagnosticSink,
        composed: ComposedModel,
    ) -> None:
        space = None
        for child in elem.children:
            if child.kind == "constraints":
                space = ParamSpace.from_element(elem, elem.registry)
                break
        if space is None:
            return
        composed.environments[elem.path()] = dict(env)
        for expr, ok in space.check_constraints(env):
            if ok is False:
                sink.error(
                    "XPDL0410",
                    f"constraint violated at {elem.label()}: {expr}",
                    elem.span,
                )
            elif ok is None:
                sink.note(
                    "XPDL0411",
                    f"constraint not decidable yet at {elem.label()}: {expr} "
                    "(unbound params)",
                    elem.span,
                )

    # -- interconnect endpoints --------------------------------------------------------
    def _verify_interconnects(
        self, composed: ComposedModel, sink: DiagnosticSink
    ) -> None:
        ids = {e.ident for e in composed.root.walk() if e.ident}
        for ic in composed.root.find_all(Interconnect):
            for end in ("head", "tail"):
                ref = ic.attrs.get(end)
                if ref is not None and ref not in ids:
                    sink.error(
                        "XPDL0420",
                        f"interconnect {ic.label()} {end}={ref!r} does not "
                        "match any element id in the composed model",
                        ic.span,
                    )


def compose_model(
    repository: ModelRepository,
    identifier: str,
    *,
    bindings: Mapping[str, Value] | None = None,
    sink: DiagnosticSink | None = None,
) -> ComposedModel:
    """Convenience one-shot composition."""
    return Composer(repository).compose(identifier, sink, bindings=bindings)
