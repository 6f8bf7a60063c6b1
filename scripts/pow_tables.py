"""Generate the tables of the owned ``pow`` in ``src/dydila/_pow_tables.py``.

    python3 scripts/pow_tables.py            # print the module
    python3 scripts/pow_tables.py --write    # rewrite src/dydila/_pow_tables.py

Every entry is computed with exact rational arithmetic (``fractions``) and
60-digit ``decimal`` logarithms and exponentials, then rounded once to a
double, so the tables depend on nothing downloaded and on no host libm.
The tests regenerate the module and compare it with the committed file.

The log is table-driven after Tang (ACM TOMS 1990), in the layout of the
glibc 2.28 / Arm optimized-routines ``pow``: ``x = 2^k z`` with z in
``[OFF, 2 OFF)`` split into 128 subintervals by the top 7 mantissa bits of
``bits(z) - OFF``.  Subinterval i has ``invc = 1/c``, c near its centre:

- ``invc`` has 8 significant bits and ``|z invc - 1| < 2^-7``, so
  ``r = z invc - 1`` is exact, and so are ``zhi invc - 1`` (zhi: the top
  21 bits of z) and its square;
- the subinterval holding 1.0 has ``c = 1`` exactly, so ``log`` near 1 has
  no cancellation and ``pow(1, g)`` is exactly 1;
- ``logc`` is ``log(c)`` rounded to a multiple of 2^-42, so ``k * LN2HI +
  logc`` is exact for every ``|k| <= 1076``, and ``logctail`` holds the
  rest.

The exp is Tang's 128-entry table (ACM TOMS 1989): ``2^(j/128)`` as the
bits of a double with ``j << 45`` subtracted (adding ``k << 45`` then
scales it by ``2^(k div 128)``), and the relative tail of that double.
Both polynomials are Taylor series with exactly rounded coefficients.
"""

from __future__ import annotations

import argparse
import struct
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

getcontext().prec = 60

TABLE_BITS = 7
N = 1 << TABLE_BITS
LOG_OFF = 0x3FE6955500000000
INVC_BITS = 8
LN2HI_ULP = 42  # LN2HI and logc are multiples of 2^-42
LN2HIN_ULP = 42  # LN2HIN has 35 significant bits, so k * LN2HIN is exact for |k| < 2^18
LOG_POLY_DEGREE = 9  # log1p(r) - r + r^2/2 = r^3 (1/3 - r/4 + ... + r^6/9)
EXP_POLY_DEGREE = 6  # exp(r) - 1 - r = r^2/2 + ... + r^6/720

OUT = Path(__file__).resolve().parent.parent / "src" / "dydila" / "_pow_tables.py"


def _double(bits: int) -> Fraction:
    return Fraction(struct.unpack("<d", struct.pack("<Q", bits))[0])


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _round_multiple(x, ulp_exp: int) -> Fraction:
    """x rounded to the nearest multiple of 2^-ulp_exp (ties to even)."""
    return Fraction(round(Fraction(x) * 2**ulp_exp), 2**ulp_exp)


def _round_bits(x: Fraction, bits: int) -> Fraction:
    """x > 0 rounded to `bits` significant bits (ties to even)."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1
    return _round_multiple(x, bits - 1 - e)


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


LN2 = Decimal(2).ln()


def log_tables():
    invc, logc, logctail = [], [], []
    for i in range(N):
        lo, hi = _double(LOG_OFF + (i << 45)), _double(LOG_OFF + ((i + 1) << 45))
        ic = Fraction(1) if lo <= 1 < hi else _round_bits(2 / (lo + hi), INVC_BITS)
        assert max(abs(lo * ic - 1), abs(hi * ic - 1)) < Fraction(1, 2**7), i  # r exact
        log_c = -_dec(ic).ln()
        head = _round_multiple(Fraction(log_c), LN2HI_ULP)
        invc.append(float(ic))
        logc.append(float(head))
        logctail.append(float(log_c - _dec(head)))
    return invc, logc, logctail


def exp_tables():
    tail, sbits = [], []
    for j in range(N):
        exact = (LN2 * j / N).exp()
        scale = float(exact)
        tail.append(float((exact - _dec(Fraction(scale))) / _dec(Fraction(scale))))
        sbits.append(_bits(scale) - (j << 45))
    return tail, sbits


def constants():
    ln2hi = _round_multiple(Fraction(LN2), LN2HI_ULP)
    ln2hin = _round_multiple(Fraction(LN2 / N), LN2HIN_ULP)
    return {
        "LN2HI": float(ln2hi),
        "LN2LO": float(LN2 - _dec(ln2hi)),
        "INVLN2N": float(N / LN2),
        "NEGLN2HIN": -float(ln2hin),
        "NEGLN2LON": -float(LN2 / N - _dec(ln2hin)),
    }


def polys():
    log_poly = [float(Fraction((-1) ** (n + 1), n)) for n in range(3, LOG_POLY_DEGREE + 1)]
    fact, exp_poly = 1, []
    for n in range(1, EXP_POLY_DEGREE + 1):
        fact *= n
        if n >= 2:
            exp_poly.append(float(Fraction(1, fact)))
    return log_poly, exp_poly


def _block(name: str, words, per_line: int) -> str:
    """A table as one whitespace-separated string literal, cheap to import."""
    rows = [" ".join(words[i:i + per_line]) for i in range(0, len(words), per_line)]
    return f'{name} = """\n' + "\n".join(rows) + '\n"""\n'


def render() -> str:
    invc, logc, logctail = log_tables()
    tail, sbits = exp_tables()
    log_poly, exp_poly = polys()
    lines = [
        '"""Tables of the owned pow in ``numerics``: hex doubles, as C and',
        "``float.fromhex`` read them, each table one whitespace-separated",
        'string.  Generated by ``scripts/pow_tables.py``; do not edit."""',
        "",
        f"TABLE_BITS = {TABLE_BITS}",
        f"LOG_OFF = 0x{LOG_OFF:016x}",
    ]
    lines += [f'{k} = "{v.hex()}"' for k, v in constants().items()]
    text = "\n".join(lines) + "\n"
    for name, values in (("LOG_POLY", log_poly), ("EXP_POLY", exp_poly), ("LOG_INVC", invc),
                         ("LOG_LOGC", logc), ("LOG_LOGCTAIL", logctail), ("EXP_TAIL", tail)):
        text += _block(name, [v.hex() for v in values], 3)
    text += _block("EXP_SBITS", [f"0x{b:016x}" for b in sbits], 4)
    return text


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help=f"rewrite {OUT.name}")
    args = p.parse_args()
    if args.write:
        OUT.write_text(render())
    else:
        print(render(), end="")


if __name__ == "__main__":
    main()
