"""A stand-in for program modules: functions and a class the tracer wraps."""

import time


def leaf(seconds: float = 0.0) -> str:
    if seconds:
        time.sleep(seconds)
    return "leaf"


def walk(depth: int) -> int:
    """Recursive, like ``to_wire`` walking a nested value."""
    return depth if depth == 0 else walk(depth - 1)


class Base:
    def inherited(self) -> str:
        return leaf()


class Service(Base):
    def handle(self, payload: dict) -> dict:
        return {"echo": payload.get("request_id"), "leaf": leaf()}
