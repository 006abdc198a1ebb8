"""Strategy-contract rule: every registered engine honors the executor API.

The strategies stay interchangeable because each executor behind
``STRATEGY_BUILDERS`` streams through the same surface.  The in-process
strategies get it by construction: they derive from
:class:`~repro.execution.stack.StackExecutor`, whose one
``execute_stream(seed, retain)`` loop stamps the subclass's declared
``strategy`` name onto every result (``result.engine``).  A strategy
outside that loop (the sharded device pool) must define
``execute_stream`` itself.  The contract spans several modules and has
no single enforcement point at runtime — a new strategy can pass its own
tests while silently breaking ``run_ptsbe_stream``'s dispatch
assumptions.

**STRAT001** walks the contract statically:

1. parse ``execution/batched.py`` for the ``STRATEGY_BUILDERS`` dict;
2. resolve each builder function to the executor class it constructs
   (following the builder-local ``from repro.execution.<m> import <Cls>``);
3. a class deriving from ``StackExecutor`` must declare
   ``strategy = "<registered name>"`` in its body; any other class must
   define ``execute_stream`` accepting ``seed`` and ``retain``;
4. require the dispatch site to attach the routing trail
   (an ``<stream>.routing = ...`` assignment in ``execution/batched.py``).

On trees without ``execution/batched.py`` (not a repro-shaped source
root) the rule is silent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.framework import Project, ProjectRule, register

__all__ = ["STRAT001ExecutorContract"]

DISPATCH_MODULE = "execution/batched.py"
TABLE_NAME = "STRATEGY_BUILDERS"
REQUIRED_PARAMS = ("seed", "retain")
BASE_CLASS = "StackExecutor"


def _builders_table(tree: ast.Module) -> Optional[Tuple[ast.Dict, Dict[str, str]]]:
    """The ``STRATEGY_BUILDERS`` dict node and its name->builder map."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == TABLE_NAME for t in node.targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            return None
        table: Dict[str, str] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Name)
            ):
                table[key.value] = value.id
        return node.value, table
    return None


def _resolve_builder(
    tree: ast.Module, builder_name: str
) -> Optional[Tuple[Optional[str], str]]:
    """(module relpath or None for dispatch-local, class name) for a builder.

    Follows the idiom ``def _build_x(...): from repro.execution.x import
    XExecutor; return XExecutor(...)``.  A builder returning a class with
    no builder-local import constructs a class defined in the dispatch
    module itself (the serial engine).
    """
    func = next(
        (
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == builder_name
        ),
        None,
    )
    if func is None:
        return None
    local_imports: Dict[str, str] = {}
    returned: Optional[str] = None
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local_imports[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Name):
                returned = callee.id
    if returned is None:
        return None
    module = local_imports.get(returned)
    if module is None:
        return None, returned
    if not module.startswith("repro."):
        return None
    relpath = "/".join(module.split(".")[1:]) + ".py"
    return relpath, returned


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _param_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _derives_from_base(cls: ast.ClassDef) -> bool:
    """Does the class list ``StackExecutor`` among its bases?"""
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
        if name == BASE_CLASS:
            return True
    return False


def _declared_strategy(cls: ast.ClassDef) -> Optional[object]:
    """The constant a ``strategy = ...`` class-body assignment binds."""
    for node in cls.body:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "strategy" for t in targets):
            return value.value if isinstance(value, ast.Constant) else None
    return None


def _dispatch_attaches_routing(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Attribute) and t.attr == "routing"
                for t in node.targets
            ):
                return True
    return False


@register
class STRAT001ExecutorContract(ProjectRule):
    id = "STRAT001"
    title = "registered strategy violates the executor contract"
    rationale = (
        "Every engine behind STRATEGY_BUILDERS must either run the shared "
        "StackExecutor loop under its declared strategy name or expose "
        "execute_stream(seed=..., retain=...) itself; the strategies are "
        "only interchangeable (and routing decisions only auditable) "
        "while that holds."
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.context_for(DISPATCH_MODULE)
        if ctx is None:
            return  # not a repro-shaped tree: nothing to check
        found = _builders_table(ctx.tree)
        if found is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=1,
                column=0,
                message=(
                    f"{TABLE_NAME} dict literal not found; the strategy "
                    f"contract has no anchor to check against"
                ),
                scope="<module>",
                text=ctx.line_text(1),
            )
            return
        table_node, table = found
        if not _dispatch_attaches_routing(ctx.tree):
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    "dispatch never attaches the routing decision "
                    "(no '<stream>.routing = ...' assignment); "
                    "run_ptsbe_stream must record why each engine ran"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
        for strategy, builder_name in sorted(table.items()):
            yield from self._check_strategy(project, table_node, strategy, builder_name)

    def _check_strategy(
        self,
        project: Project,
        table_node: ast.Dict,
        strategy: str,
        builder_name: str,
    ) -> Iterable[Finding]:
        ctx = project.context_for(DISPATCH_MODULE)
        assert ctx is not None  # caller established it
        resolved = _resolve_builder(ctx.tree, builder_name)
        if resolved is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    f"builder '{builder_name}' for strategy "
                    f"'{strategy}' does not resolve to an executor class "
                    f"(expected 'from repro.execution.<m> import <Cls>' + "
                    f"'return <Cls>(...)')"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
            return
        module_rel, class_name = resolved
        module_rel = module_rel or DISPATCH_MODULE
        cls = project.find_class(module_rel, class_name)
        module_ctx = project.context_for(module_rel)
        if cls is None or module_ctx is None:
            yield Finding(
                rule=self.id,
                path=DISPATCH_MODULE,
                line=table_node.lineno,
                column=table_node.col_offset,
                message=(
                    f"executor class '{class_name}' for strategy "
                    f"'{strategy}' not found in {module_rel}"
                ),
                scope=ctx.scope_of(table_node),
                text=ctx.line_text(table_node.lineno),
            )
            return
        if _derives_from_base(cls):
            declared = _declared_strategy(cls)
            if declared != strategy:
                yield Finding(
                    rule=self.id,
                    path=module_rel,
                    line=cls.lineno,
                    column=cls.col_offset,
                    message=(
                        f"{BASE_CLASS} subclass '{class_name}' declares "
                        f"strategy {declared!r}, not the registered "
                        f"'{strategy}': its results would not record "
                        f"engine='{strategy}'"
                    ),
                    scope=class_name,
                    text=module_ctx.line_text(cls.lineno),
                )
            return
        method = _method(cls, "execute_stream")
        if method is None:
            yield Finding(
                rule=self.id,
                path=module_rel,
                line=cls.lineno,
                column=cls.col_offset,
                message=(
                    f"executor '{class_name}' (strategy '{strategy}') "
                    f"defines no execute_stream and does not derive from "
                    f"{BASE_CLASS}: every registered engine must stream "
                    f"ordered ShotChunks"
                ),
                scope=class_name,
                text=module_ctx.line_text(cls.lineno),
            )
            return
        params = _param_names(method)
        for required in REQUIRED_PARAMS:
            if required not in params:
                yield Finding(
                    rule=self.id,
                    path=module_rel,
                    line=method.lineno,
                    column=method.col_offset,
                    message=(
                        f"{class_name}.execute_stream (strategy "
                        f"'{strategy}') does not accept '{required}': "
                        f"the dispatch threads the resolved root seed "
                        f"and the retention knob to every engine"
                    ),
                    scope=f"{class_name}.execute_stream",
                    text=module_ctx.line_text(method.lineno),
                )
