import importlib

import geodiscord

MODULES = (
    "bloch",
    "discord",
    "formats",
    "measurement",
    "oracle",
    "states",
    "sweep",
    "tensor_ops",
    "total",
)


def test_all_is_the_sorted_union_of_the_modules():
    modules = [importlib.import_module(f"geodiscord.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert geodiscord.__all__ == sorted(names)
    assert len(set(geodiscord.__all__)) == len(geodiscord.__all__) == 69
    for module in modules:
        for name in module.__all__:
            assert getattr(geodiscord, name) is getattr(module, name), name
