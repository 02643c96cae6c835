"""The one-pass ``%`` reference that the ``floatfmt`` kernel is tested against.

``io.format_finite`` sends every float array and list of numbers to the
kernel; ``format_floats`` gives the text it must match, from one ``%`` pass
over the template ``io._float_template`` lays out.
"""

from coherence_kit.io import _float_template


def format_floats(shape: tuple[int, ...], values, indent: int = 0, level: int = 0) -> str:
    """Floats as JSON text at 17 significant digits, in one ``%`` pass.

    ``shape`` () formats the single float ``values``; otherwise ``values`` is
    the flat tuple of a float array of that shape, laid out as nested lists
    the way ``render_json`` lays out lists at ``indent`` and ``level``. No
    check for finiteness is made here.
    """
    return _float_template(shape, indent, level) % values
