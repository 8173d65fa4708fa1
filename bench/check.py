"""Independent checker for lucasprod CLI outputs.

Every answer is recomputed from first principles with ``arith``: terms from
the recurrence, factorizations by its own rho, admissible sets by the
factorization-free test, ranks by divisibility of U_z and U_{z/l}, verify
rejections by re-deriving the documented check order. ``judge`` returns one
of ``OK`` (a full, correct answer), ``REFUSED`` (an honest budget-exhausted
refusal: exit 3 naming a composite that really divides the term it names)
or ``WRONG`` (anything else), with a reason.
"""

from __future__ import annotations

import json
import math
import re

from arith import factor, is_prime, is_rank, kth_root, lucas_terms, rank_by_scan

OK, REFUSED, WRONG = "ok", "refused", "wrong"
FLOAT_TOLERANCE = 1.5e-6  # JSON floats are rounded to 6 decimals
_STUCK = re.compile(r"composite (\d+)(?: while factoring the term at index (\d+))?")


def parse_op(op) -> tuple[str, dict[str, str]]:
    """Subcommand and {flag: value} of an argument vector."""
    flags, it = {}, iter(op[1:])
    for token in it:
        if token != "--json":
            flags[token[2:]] = next(it)
    return op[0], flags


class Checker:
    """Judges operations; memoizes terms and factorizations across calls."""

    def __init__(self):
        self._terms: dict[tuple[int, int], list[int]] = {}
        self._factors: dict[int, dict[int, int]] = {}

    def term(self, p: int, q: int, n: int) -> int:
        terms = self._terms.get((p, q), [])
        if len(terms) <= n:
            terms = self._terms[(p, q)] = lucas_terms(p, q, max(n, 2 * len(terms)))
        return terms[n]

    def factor(self, n: int) -> dict[int, int]:
        n = abs(n)
        if n not in self._factors:
            self._factors[n] = factor(n)
        return self._factors[n]

    # --- entry point -----------------------------------------------------

    def judge(self, op, code: int, out: str, err: str) -> tuple[str, str]:
        cmd, f = parse_op(op)
        p, q = int(f["p"]), int(f["q"])
        if code == 3:
            return self._judge_refusal(p, q, out, err)
        try:
            record = json.loads(out) if code in (0, 1) else None
        except json.JSONDecodeError:
            return WRONG, f"stdout is not one JSON record: {out[:80]!r}"
        if record is None:
            return WRONG, f"exit {code}: {err.strip()[:120]}"
        if record.get("command") != cmd or record["params"]["p"] != p or record["params"]["q"] != q:
            return WRONG, "record header does not match the call"
        problem = getattr(self, "_check_" + cmd.replace("-", "_"))(p, q, f, code, record)
        return (WRONG, problem) if problem else (OK, "")

    def _judge_refusal(self, p: int, q: int, out: str, err: str) -> tuple[str, str]:
        match = _STUCK.search(err)
        if out or not match:
            return WRONG, f"exit 3 without a stuck composite: {err.strip()[:120]}"
        composite = int(match.group(1))
        if composite < 4 or is_prime(composite):
            return WRONG, f"reported stuck composite {composite} is prime"
        if match.group(2) and self.term(p, q, int(match.group(2))) % composite:
            return WRONG, f"{composite} does not divide U_{match.group(2)}"
        return REFUSED, ""

    # --- per-command checks: return None when correct, else the reason ---

    def admissible_set(self, p: int, q: int, a: int, k: int, n_max: int) -> list[int]:
        """n in [2, n_max] with |U_n|, every prime of a divided out, a k-th power."""
        primes = self.factor(a)
        out = []
        for n in range(2, n_max + 1):
            m = abs(self.term(p, q, n))
            for prime in primes:
                while m % prime == 0:
                    m //= prime
            if kth_root(m, k) is not None:
                out.append(n)
        return out

    def _check_admissible(self, p, q, f, code, record):
        expected = self.admissible_set(p, q, int(f["a"]), int(f["k"]), int(f["max"]))
        if code != 0 or record["results"] != expected:
            return f"admissible set {record['results']} != {expected}"
        return None

    def _check_solve(self, p, q, f, code, record):
        a, k, r = int(f["a"]), int(f["k"]), int(f["r"])
        admissible = self.admissible_set(p, q, a, k, int(f["max"]))
        expected = []
        if a == 1 or (a == -1 and k % 2):
            expected.append(((), a))

        def extend(start, chosen, product):
            for pos in range(start, len(admissible)):
                n = admissible[pos]
                if any(math.gcd(n, m) != 1 for m in chosen):
                    continue
                tup, prod = chosen + (n,), product * self.term(p, q, n)
                y = _kth_root_of_quotient(prod, a, k)
                if y is not None:
                    expected.append((tup, y))
                if len(tup) < r:
                    extend(pos + 1, tup, prod)

        extend(0, (), 1)
        expected.sort()
        got = [(tuple(c["indices"]), int(c["y"])) for c in record["results"]]
        if code != 0 or got != expected:
            return f"solutions {got} != {expected}"
        for cert in record["results"]:
            problem = self.certificate(p, q, a, k, cert)
            if problem:
                return problem
        return None

    def certificate(self, p: int, q: int, a: int, k: int, cert: dict) -> str | None:
        """Recheck A*y^k = prod U_n, coprimality and the valuation table."""
        indices, y = cert["indices"], int(cert["y"])
        if indices != sorted(set(indices)) or any(n < 2 for n in indices):
            return f"indices {indices} not strictly increasing and >= 2"
        if any(math.gcd(m, n) != 1 for i, m in enumerate(indices) for n in indices[i + 1:]):
            return f"indices {indices} not pairwise coprime"
        terms = {n: self.term(p, q, n) for n in indices}
        product = math.prod(terms.values())
        if product != a * y ** k:
            return f"prod U_n != {a}*{y}^{k}"
        table = {int(prime): [(e["index"], e["exponent"]) for e in entries] for prime, entries in cert["valuations"].items()}
        rebuilt = 1
        for prime, entries in table.items():
            if not is_prime(prime):
                return f"valuation table lists non-prime {prime}"
            want = [(n, _valuation(terms[n], prime)) for n in indices if terms[n] % prime == 0]
            if entries != want:
                return f"valuations of {prime}: {entries} != {want}"
            rebuilt *= prime ** sum(v for _, v in entries)
        if rebuilt != abs(product) or not set(self.factor(a)) <= set(table):
            return "valuation table does not account for every prime of the product and of a"
        return None

    def verify_outcome(self, p: int, q: int, a: int, k: int, indices: list[int]) -> str:
        """The documented first failing check of verify, or 'solution'."""
        stripped = sorted(n for n in indices if n != 1)
        if any(math.gcd(m, n) != 1 for i, m in enumerate(stripped) for n in stripped[i + 1:]):
            return "NotPairwiseCoprime"
        support = set(self.factor(a))
        terms = [self.term(p, q, n) for n in stripped]
        if any(e % k and prime not in support for t in terms for prime, e in self.factor(t).items()):
            return "ClassMismatch"
        product = math.prod(terms)
        if k == 2 and _square_class(product, self.factor(product)) != _square_class(a, self.factor(a)):
            return "ClassMismatch"
        if not stripped and (a == 1 or (a == -1 and k % 2)):
            return "solution"
        if product % a:
            return "NotDivisible"
        quotient = product // a
        if kth_root(abs(quotient), k) is None:
            return "NotKthPower"
        if quotient < 0 and k % 2 == 0:
            return "NegativeQuotientEvenK"
        return "solution"

    def _check_verify(self, p, q, f, code, record):
        a, k = int(f["a"]), int(f["k"])
        indices = [int(n) for n in f["indices"].split(",")]
        expected = self.verify_outcome(p, q, a, k, indices)
        got = "solution" if code == 0 else record.get("error", {}).get("type")
        if got != expected:
            return f"verify outcome {got} != {expected}"
        if code == 0:
            cert = record["results"][0]
            if cert["indices"] != sorted(n for n in indices if n != 1):
                return "certificate indices differ from the query"
            return self.certificate(p, q, a, k, cert)
        return None

    def _check_rank(self, p, q, f, code, record):
        prime = int(f["prime"])
        if code != 0:
            return f"no rank reported for prime {prime}"
        (row,) = record["results"]
        if row["p"] != prime or not is_rank(p, q, prime, row["z"]):
            return f"z({prime}) = {row['z']} is not the rank of apparition"
        return None

    def _check_primitive(self, p, q, f, code, record):
        n = int(f["n"])
        (body,) = record["results"]
        value = self.term(p, q, n)
        entries = [
            {"prime": prime, "multiplicity": e, "primitive": rank_by_scan(p, q, prime, n) == n}
            for prime, e in self.factor(value).items()
        ]
        if code != 0 or body["n"] != n or body["value"] != str(value) or body["entries"] != entries:
            return f"prime table of U_{n} is wrong"
        verdict = body["verdict"]
        if "a" not in f:
            return None if verdict is None else "verdict without --a"
        a = int(f["a"])
        ranks = {rank_by_scan(p, q, prime, prime + 1) for prime in self.factor(a)}
        blocker = None
        if n not in ranks:
            blocker = next(
                (e["prime"] for e in entries if e["primitive"] and e["multiplicity"] == 1 and a % e["prime"]),
                None,
            )
        if verdict is None or verdict["admissible"] != (blocker is None) or verdict["prime"] != blocker:
            return f"obstruction verdict {verdict} != blocker {blocker}"
        return None

    def _check_classify(self, p, q, f, code, record):
        k, n_max = int(f["k"]), int(f["max"])
        rows = record["results"]
        if code != 0 or [row["n"] for row in rows] != list(range(1, n_max + 1)):
            return "classify rows do not cover 1..max"
        for row in rows:
            value = self.term(p, q, row["n"])
            fac = self.factor(value)
            sign = 1 if value > 0 else -1
            e = sign * math.prod(b ** (x % k) for b, x in fac.items())
            s = math.prod(b ** (x // k) for b, x in fac.items())
            want = {"n": row["n"], "value": str(value), "e": str(e), "s": str(s), "class": str(_square_class(value, fac))}
            if row != want:
                return f"classify row {row} != {want}"
        return None

    def _check_abc_quality(self, p, q, f, code, record):
        k, lo, hi = int(f["k"]), int(f["from"]), int(f["to"])
        rows = record["results"]
        if code != 0 or [row["n"] for row in rows] != list(range(lo, hi + 1)):
            return "abc rows do not cover from..to"
        delta = p * p + 4 * q
        log_alpha = math.log(max(abs(p + math.sqrt(delta)), abs(p - math.sqrt(delta))) / 2)
        d = _square_class(delta, self.factor(delta))
        disc = d if d % 4 == 1 else 4 * d
        for row in rows:
            n = row["n"]
            value = self.term(p, q, n)
            fac = self.factor(value)
            height = max(n * log_alpha, 0.5 * math.log(delta) + math.log(abs(value)))
            support = set(fac) | set(self.factor(delta))
            radical = sum(math.log(b) / (2 if disc % b == 0 else 1) for b in support)
            log_s = sum((x // k) * math.log(b) for b, x in fac.items())
            want = {
                "height": height, "radical": radical, "quality": height / radical,
                "lower_slack": height - n * log_alpha, "upper_slack_term": radical - log_s,
            }
            for key, expected in want.items():
                if abs(row[key] - expected) > FLOAT_TOLERANCE:
                    return f"abc {key} at n={n}: {row[key]} != {expected:.6f}"
        return None


def _valuation(n: int, prime: int) -> int:
    v, n = 0, abs(n)
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def _square_class(n: int, fac: dict[int, int]) -> int:
    """Signed squarefree part of n, given the factorization of |n|."""
    return (1 if n > 0 else -1) * math.prod(b for b, e in fac.items() if e % 2)


def _kth_root_of_quotient(product: int, a: int, k: int) -> int | None:
    """y with a*y^k == product (y >= 0 when k is even), else None."""
    if product % a:
        return None
    quotient = product // a
    if quotient < 0 and k % 2 == 0:
        return None
    root = kth_root(abs(quotient), k)
    if root is None:
        return None
    return -root if quotient < 0 else root
