"""Service base class with action-based operation routing.

A service is a class whose methods are marked with :func:`operation`,
keyed by WS-A action URI.  The runtime dispatches inbound messages to the
operation matching their ``wsa:Action`` header.

Operations receive ``(context, value)`` where ``value`` is the
deserialized body payload (or ``None`` for an empty body), and may return:

* ``None`` -- one-way, no reply;
* a plain Python value -- the runtime wraps it in a ``<tag>Response`` body
  with action ``<action>Response``;
* a :class:`Reply` -- full control over reply action/tag/value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.soap.handler import MessageContext


@dataclass
class Reply:
    """Explicit reply specification from an operation."""

    value: Any
    action: Optional[str] = None
    tag: Optional[str] = None


_OPERATION_ATTR = "_ws_operation_action"


def operation(action: str) -> Callable[[Callable], Callable]:
    """Mark a method as the operation handling WS-A ``action``."""

    def mark(method: Callable) -> Callable:
        setattr(method, _OPERATION_ATTR, action)
        return method

    return mark


class Service:
    """Base class for SOAP services.

    Subclasses define operations with the :func:`operation` decorator and
    are mounted on a runtime at a path::

        class Ping(Service):
            @operation("urn:example:ping")
            def ping(self, context, value):
                return {"echo": value}

        runtime.add_service("/ping", Ping())
    """

    def __init__(self) -> None:
        # Operations added at runtime.  The decorated ones are resolved
        # once per class and bound on lookup, so an instance holds no
        # bound method per operation.
        self._operations: Dict[str, Callable[[MessageContext, Any], Any]] = {}
        _class_operations(type(self))

    def add_operation(
        self, action: str, handler: Callable[[MessageContext, Any], Any]
    ) -> None:
        """Register an operation at runtime (used by application nodes that
        bind callbacks rather than subclassing).

        Raises:
            ValueError: if the action is already handled.
        """
        if action in self._operations or action in _class_operations(type(self)):
            raise ValueError(f"duplicate operation for action {action!r}")
        self._operations[action] = handler

    def actions(self) -> Dict[str, Callable[[MessageContext, Any], Any]]:
        """Mapping of action URI to bound operation method."""
        operations = {
            action: function.__get__(self)
            for action, function in _class_operations(type(self)).items()
        }
        operations.update(self._operations)
        return operations

    def lookup(self, action: str) -> Optional[Callable[[MessageContext, Any], Any]]:
        """The operation for ``action``, or ``None``."""
        function = _class_operations(type(self)).get(action)
        if function is not None:
            return function.__get__(self)
        return self._operations.get(action)


def _class_operations(cls: type) -> Dict[str, Callable]:
    """``action -> function`` for the decorated methods of a service
    class, built on the class's first instantiation and kept on it.

    Raises:
        ValueError: when two methods claim one action.
    """
    table = cls.__dict__.get("_operation_table")
    if table is None:
        table = {}
        for name in dir(cls):
            function = getattr(cls, name, None)
            action = getattr(function, _OPERATION_ATTR, None)
            if action is not None:
                if action in table:
                    raise ValueError(f"duplicate operation for action {action!r}")
                table[action] = function
        cls._operation_table = table
    return table
