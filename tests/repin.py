"""Re-pin the golden reports: run every case of ``tests/test_golden.py`` and
rewrite ``tests/golden.json`` with what it observes.

Run from the root of a checkout, with ``crlsim`` importable::

    PYTHONPATH=src python tests/repin.py

It prints one ``case pin: old -> new`` line per moved pin, for CHANGES.md,
and nothing when no pin moved; the file it writes is then unchanged.
"""

from test_golden import CASES, GOLDEN_PATH, PINS, observe, render


def main():
    pins = {name: observe(name) for name in CASES}
    for name in sorted(pins.keys() | PINS.keys()):
        old, new = PINS.get(name, {}), pins.get(name, {})
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                print(f"{name} {key}: {old.get(key)} -> {new.get(key)}")
    GOLDEN_PATH.write_text(render(pins))


if __name__ == "__main__":
    main()
