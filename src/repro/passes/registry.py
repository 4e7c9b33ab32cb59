"""Pass registry and the textual pipeline syntax.

Every optimization pass registers itself here under a short name together
with a description of its tunable parameters.  On top of the registry this
module implements a textual pipeline syntax in the style of LLVM's new pass
manager ``-passes=`` option:

    simplifycfg,mem2reg,inline<threshold=5000,loops>,gvn,ifconvert<spec=64>

* passes are separated by commas,
* a pass may carry ``<...>`` parameters: ``key=value`` for integers and
  name lists, a bare ``flag`` (or ``no-flag``) for booleans,
* :func:`parse_pipeline` turns such a string into a :class:`PipelineSpec`
  and :func:`format_pipeline` renders a spec back to its canonical string;
  the two round-trip (``parse_pipeline(format_pipeline(spec)) == spec``).

The optimization levels in :mod:`repro.pipelines.levels` are plain entries
in a table of such strings — experimenting with a new pipeline shape means
writing a string, not editing library code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .pass_manager import Pass


class PipelineSyntaxError(ValueError):
    """A pipeline string (or a parameter in it) could not be parsed."""


# --------------------------------------------------------------------------
# Parameter schemas
# --------------------------------------------------------------------------

#: Parameter kinds understood by the parser/formatter.
_INT = "int"
_FLAG = "flag"
_NAMES = "names"


@dataclass(frozen=True)
class PassParam:
    """One textual parameter of a registered pass.

    ``key`` is the name used in pipeline strings, ``field`` the keyword
    argument the pass factory receives, ``kind`` one of ``int``/``flag``/
    ``names``, and ``default`` the value used when the parameter is absent
    (defaults are never emitted by the formatter).
    """

    key: str
    field: str
    kind: str
    default: object


def _dataclass_default(params_type: type, field_name: str) -> object:
    for f in dataclasses.fields(params_type):
        if f.name != field_name:
            continue
        if f.default is not dataclasses.MISSING:
            return f.default
        if f.default_factory is not dataclasses.MISSING:  # type: ignore
            return f.default_factory()  # type: ignore[misc]
    raise ValueError(f"{params_type.__name__} has no field '{field_name}'")


def int_param(key: str, field: str, params_type: type) -> PassParam:
    """An integer parameter whose default comes from ``params_type``."""
    return PassParam(key, field, _INT, _dataclass_default(params_type, field))


def flag_param(key: str, field: str, params_type: type) -> PassParam:
    """A boolean parameter whose default comes from ``params_type``."""
    return PassParam(key, field, _FLAG, _dataclass_default(params_type, field))


def names_param(key: str, field: str,
                default: Sequence[str] = ()) -> PassParam:
    """A ``key=a:b:c`` name-list parameter (stored as a sorted tuple)."""
    return PassParam(key, field, _NAMES, tuple(sorted(default)))


@dataclass(frozen=True)
class PassInfo:
    """Registry entry for one pass."""

    name: str
    factory: Callable[..., Pass]
    params: Tuple[PassParam, ...] = ()
    description: str = ""

    def param(self, key: str) -> PassParam:
        for param in self.params:
            if param.key == key:
                return param
        known = ", ".join(p.key for p in self.params) or "none"
        raise PipelineSyntaxError(
            f"pass '{self.name}' has no parameter '{key}' "
            f"(known parameters: {known})")


_REGISTRY: Dict[str, PassInfo] = {}


def register_pass(name: str, factory: Callable[..., Pass], *,
                  params: Sequence[PassParam] = (),
                  description: str = "") -> PassInfo:
    """Register ``factory`` under ``name``.  Called once at import time by
    every pass module; re-registration under the same name is rejected."""
    if name in _REGISTRY:
        raise ValueError(f"pass '{name}' is already registered")
    info = PassInfo(name=name, factory=factory, params=tuple(params),
                    description=description)
    _REGISTRY[name] = info
    return info


def pass_info(name: str) -> PassInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineSyntaxError(
            f"unknown pass '{name}'; known passes: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def registered_passes() -> List[PassInfo]:
    """All registered passes, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def pass_names() -> List[str]:
    return sorted(_REGISTRY)


# --------------------------------------------------------------------------
# Pipeline specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PassSpec:
    """One pass invocation: a registered name plus explicit parameters.

    ``params`` is stored as a tuple of ``(key, value)`` pairs in the schema's
    declared order and never contains values equal to the schema default —
    that normal form is what makes spec equality and the parse/format
    round-trip exact.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, key: str, default: object = None) -> object:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_param(self, key: str, value: object) -> "PassSpec":
        """A copy of this spec with ``key`` set to ``value`` (normalized:
        setting a parameter back to its default removes it)."""
        info = pass_info(self.name)
        schema = info.param(key)
        value = _normalize_value(info, schema, value)
        given = {k: v for k, v in self.params}
        if value == schema.default:
            given.pop(key, None)
        else:
            given[key] = value
        return PassSpec(self.name, _ordered_params(info, given))

    def __str__(self) -> str:
        return format_pass(self)


@dataclass(frozen=True)
class PipelineSpec:
    """An ordered sequence of :class:`PassSpec`, i.e. one whole pipeline."""

    passes: Tuple[PassSpec, ...] = ()

    def __iter__(self):
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def map_passes(self, fn: Callable[[PassSpec], Optional[PassSpec]]
                   ) -> "PipelineSpec":
        """Rebuild the pipeline by mapping ``fn`` over every pass; returning
        ``None`` drops the pass.  This is how spec transforms (entry points,
        runtime-check ablation) are written."""
        rebuilt = []
        for spec in self.passes:
            mapped = fn(spec)
            if mapped is not None:
                rebuilt.append(mapped)
        return PipelineSpec(tuple(rebuilt))

    def __str__(self) -> str:
        return format_pipeline(self)


def _normalize_value(info: PassInfo, param: PassParam,
                     value: object) -> object:
    """Coerce ``value`` into the canonical stored form for ``param``."""
    if param.kind == _INT:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise PipelineSyntaxError(
                f"pass '{info.name}': parameter '{param.key}' expects an "
                f"integer >= 0, got {value!r}")
        return value
    if param.kind == _FLAG:
        if not isinstance(value, bool):
            raise PipelineSyntaxError(
                f"pass '{info.name}': parameter '{param.key}' is a flag "
                f"(use '{param.key}' or 'no-{param.key}'), got {value!r}")
        return value
    assert param.kind == _NAMES
    if isinstance(value, str):
        value = value.split(":")
    try:
        names = tuple(sorted(str(n) for n in value))  # type: ignore[union-attr]
    except TypeError:
        raise PipelineSyntaxError(
            f"pass '{info.name}': parameter '{param.key}' expects a "
            f"name list, got {value!r}") from None
    if not all(names) or not names:
        raise PipelineSyntaxError(
            f"pass '{info.name}': parameter '{param.key}' needs at least "
            f"one non-empty name")
    return names


def _ordered_params(info: PassInfo, given: Dict[str, object]
                    ) -> Tuple[Tuple[str, object], ...]:
    """Order ``given`` in schema order (the canonical storage order)."""
    return tuple((p.key, given[p.key]) for p in info.params if p.key in given)


def make_pass_spec(name: str, **params: object) -> PassSpec:
    """Build a normalized :class:`PassSpec` programmatically.  Parameter
    names use the textual keys with ``-`` spelled as ``_`` for keyword
    friendliness (``safe_loads=False`` for ``safe-loads``)."""
    info = pass_info(name)
    given: Dict[str, object] = {}
    for key, value in params.items():
        key = key.replace("_", "-")
        param = info.param(key)
        value = _normalize_value(info, param, value)
        if value != param.default:
            given[key] = value
    return PassSpec(name, _ordered_params(info, given))


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _split_top_level(text: str, separator: str = ",") -> List[str]:
    """Split on ``separator`` outside any ``<...>`` nesting."""
    items: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth < 0:
                raise PipelineSyntaxError(
                    f"unbalanced '>' in pipeline {text!r}")
        if ch == separator and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise PipelineSyntaxError(f"unbalanced '<' in pipeline {text!r}")
    items.append("".join(current))
    return items


def parse_pass(text: str) -> PassSpec:
    """Parse one ``name`` or ``name<params>`` item."""
    text = text.strip()
    if not text:
        raise PipelineSyntaxError("empty pass entry in pipeline")
    if "<" in text:
        if not text.endswith(">"):
            raise PipelineSyntaxError(
                f"malformed pass entry {text!r}: parameters must be "
                f"enclosed in '<...>'")
        name, _, param_text = text[:-1].partition("<")
        name = name.strip()
        info = pass_info(name)
        given: Dict[str, object] = {}
        for item in param_text.split(","):
            item = item.strip()
            if not item:
                raise PipelineSyntaxError(
                    f"pass '{name}': empty parameter in <{param_text}>")
            key, eq, raw = item.partition("=")
            key = key.strip()
            if eq:
                param = info.param(key)
                value = _parse_value(info, param, raw.strip())
            else:
                negated = key.startswith("no-")
                flag_key = key[3:] if negated else key
                param = info.param(flag_key)
                if param.kind != _FLAG:
                    raise PipelineSyntaxError(
                        f"pass '{name}': parameter '{param.key}' needs a "
                        f"value ('{param.key}=...')")
                key, value = flag_key, not negated
            if key in given:
                raise PipelineSyntaxError(
                    f"pass '{name}': duplicate parameter '{key}'")
            given[key] = value
        given = {k: v for k, v in given.items()
                 if v != info.param(k).default}
        return PassSpec(name, _ordered_params(info, given))
    return PassSpec(pass_info(text).name)


def _parse_value(info: PassInfo, param: PassParam, raw: str) -> object:
    value: object = raw
    if param.kind == _INT:
        try:
            value = int(raw)
        except ValueError:
            raise PipelineSyntaxError(
                f"pass '{info.name}': parameter '{param.key}' expects an "
                f"integer, got '{raw}'") from None
    if param.kind != _FLAG:
        return _normalize_value(info, param, value)
    if raw in ("true", "on", "1"):
        return True
    if raw in ("false", "off", "0"):
        return False
    raise PipelineSyntaxError(
        f"pass '{info.name}': parameter '{param.key}' is a flag; use "
        f"'{param.key}', 'no-{param.key}', or '{param.key}=true/false'")


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse a comma-separated pipeline string into a :class:`PipelineSpec`.

    Raises :class:`PipelineSyntaxError` naming the offending pass or
    parameter on malformed input.
    """
    text = text.strip()
    if not text:
        return PipelineSpec()
    return PipelineSpec(tuple(parse_pass(item)
                              for item in _split_top_level(text)))


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

def format_pass(spec: PassSpec) -> str:
    """Render one pass spec in canonical form (defaults omitted, parameters
    in schema order, ``True`` flags bare and ``False`` flags ``no-``)."""
    info = pass_info(spec.name)
    rendered: List[str] = []
    for key, value in spec.params:
        param = info.param(key)
        if value == param.default:
            continue
        if param.kind == _FLAG:
            rendered.append(key if value else f"no-{key}")
        elif param.kind == _NAMES:
            rendered.append(f"{key}={':'.join(value)}")  # type: ignore
        else:
            rendered.append(f"{key}={value}")
    if rendered:
        return f"{spec.name}<{','.join(rendered)}>"
    return spec.name


def format_pipeline(spec: PipelineSpec) -> str:
    """Render a pipeline spec as its canonical textual form."""
    return ",".join(format_pass(p) for p in spec.passes)


# --------------------------------------------------------------------------
# Building
# --------------------------------------------------------------------------

def build_pass(spec: PassSpec) -> Pass:
    """Instantiate the registered pass for ``spec`` (stamped with the spec's
    canonical text, which keys the pass manager's skip memo)."""
    info = pass_info(spec.name)
    kwargs = {}
    for key, value in spec.params:
        param = info.param(key)
        value = _normalize_value(info, param, value)
        if param.kind == _NAMES:
            value = set(value)  # type: ignore[arg-type]
        kwargs[param.field] = value
    pass_ = info.factory(**kwargs)
    pass_.spec_text = format_pass(spec)
    return pass_


def build_passes(spec: PipelineSpec) -> List[Pass]:
    """Instantiate every pass in ``spec``, in order."""
    return [build_pass(p) for p in spec.passes]
