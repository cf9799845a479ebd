"""Fast modular Hermite computations over a Smith-form modulus.

Two related problems are solved here for a nonsingular Smith form S and a
reduced A:

* `hermite_of_stack` computes the Hermite basis T of L(A) + L(S);
* `coprime_parts` computes blocks C, K with [I C; 0 K] the Hermite form of
  [I -A*T^{-1}; 0 S*T^{-1}], without ever forming T^{-1}, so the relations
  lattice of (S, A) equals that of (K, C) with coprime inputs.

`hermite_of_stack` runs one elimination over the rows of A, the
modulo-determinant Hermite elimination of Domich, Kannan and Trotter with
one modulus per column: L(S) holds s_j*e_j, so column j may be reduced
modulo s_j at any point.

The paper instead slices the columns into halving stages, each solved
modulo the largest invariant factor of its slice, so that its bit
complexity matches fast matrix multiplication.  With schoolbook products
the stages cost more than they save; `stage_transform` and `stage_apply`
remain as the tested reference of that slicing, off the hot path.

`coprime_parts` and each stage read their blocks off
`structured_hermite_blocks`, which solves over the columns of T, column j
modulo its own invariant factor s_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .howell import hermite_via_howell, hermite_with_eliminator
from .intmat import (
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    PreconditionError,
    SmithForm,
    colmod_mul,
    invariant_checks_enabled,
    matadd,
    matmul,
    matsub,
    require_colreduced,
    vstack,
)
from .modn import ext_gcd


@dataclass(frozen=True)
class StageTransform:
    """Blocks of one stage's unimodular transform.

    e eliminates the slice into its Hermite block; q, c, k push the
    elimination through the rows above, beside, and below.  The starred
    blocks completing the unimodular matrix exist but are never computed;
    tests reconstruct them by exact division.  No entry bound is kept: the
    blocks are only ever multiplied exactly by `colmod_mul`.
    """

    e: IntMat
    q: IntMat
    c: IntMat
    k: HermiteBasis


def structured_hermite_blocks(f: IntMat, t: HermiteBasis, a: IntMat,
                              s: SmithForm) -> tuple[IntMat, IntMat, IntMat, IntMat]:
    """Blocks (G, Q, C, K) of the Hermite form of the bordered stack.

    The bordered matrix [I F 0 0; 0 T 0 I; 0 A I 0; 0 S 0 0] has Hermite form
    [I G 0 Q; 0 T 0 *; 0 0 I C; 0 0 0 K].  Requires L(S) and L(A) inside
    L(T).  A Hermite form is unique, so each block row is read off a solve
    over the columns of T, column j modulo its own s_j:

    * K is the Hermite basis of {z : z*T in L(S)}.  Its diagonal is s_j/t_jj,
      and its row j solves z*T == 0 column-modulo S from z_j = s_j/t_jj on;
    * a row of C solves c*T == -a column-modulo S from column 0;
    * a row of G is f reduced against the rows of T, and the matching row of
      Q is minus the quotients, reduced against the rows of K.

    Once the K solves succeed, det{z : z*T in L(S)} <= det S / det T, which
    forces L(S) inside L(T); a C solve then fails exactly when its row of A
    is outside L(T).  Every entry of a solve stays below its s_j.
    """
    m = s.dim
    if t.dim != m or f.cols != m or a.cols != m:
        raise DimensionError("block computation needs matching column dimensions")
    t_rows = t.mat.data
    t_cols = list(zip(*t_rows))
    t_diag = t.diagonal()
    if any(sj % tj for sj, tj in zip(s.diag, t_diag)):
        raise PreconditionError("T is not the Hermite basis of its stack")

    def solve(z: list[int], b: Sequence[int]) -> list[int]:
        # extend z column by column so that z*T + b lies in L(S)
        for k in range(len(z), m):
            r = -(b[k] + sum(map(mul, z, t_cols[k]))) % s.diag[k]
            if r % t_diag[k]:
                raise PreconditionError("T is not the Hermite basis of its stack")
            z.append(r // t_diag[k])
        return z

    k_diag = [sj // tj for sj, tj in zip(s.diag, t_diag)]
    k_rows = [solve([0] * j + [d], (0,) * m) for j, d in enumerate(k_diag)]
    c_rows = [solve([], row) for row in a.data]
    g_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for row in f.data:
        g, quots = _hermite_reduce(list(row), t_rows, t_diag)
        g_rows.append(g)
        q_rows.append(_hermite_reduce([-x for x in quots], k_rows, k_diag)[0])
    return (IntMat._of_rows(g_rows, f.rows, m), IntMat._of_rows(q_rows, f.rows, m),
            IntMat._of_rows(c_rows, a.rows, m), IntMat._of_rows(k_rows, m, m))


def _hermite_reduce(v: list[int], rows: Sequence[Sequence[int]],
                    diag: Sequence[int]) -> tuple[list[int], list[int]]:
    """v reduced against Hermite rows from left to right, and the quotients."""
    quots = []
    for k, (row, d) in enumerate(zip(rows, diag)):
        q = v[k] // d
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        quots.append(q)
    return v, quots


def stage_transform(f1: IntMat, a1: IntMat, s1: SmithForm
                    ) -> tuple[StageTransform, IntMat, HermiteBasis]:
    """One stage's transform blocks from the leading slice (F1, A1, S1).

    Returns the transform, the finished rows G1 above the new Hermite block,
    and the Hermite block T1 itself; [I G1; 0 T1] is in Hermite form.  When
    the slice's largest invariant factor is 1 the stage is a no-op with an
    identity block and zero transforms.
    """
    m1 = s1.dim
    if s1.largest == 1:
        ident = HermiteBasis._trusted(IntMat.identity(m1))
        tr = StageTransform(IntMat.zeros(m1, a1.rows), IntMat.zeros(f1.rows, m1),
                            IntMat.zeros(a1.rows, m1), ident)
        return tr, IntMat.zeros(f1.rows, m1), ident
    t1, e = hermite_with_eliminator(s1, a1)
    g1, q, c, k = structured_hermite_blocks(f1, t1, a1, s1)
    # the column solves build K in Hermite form
    tr = StageTransform(e, q, c, HermiteBasis._trusted(k))
    if invariant_checks_enabled():
        verify_stage_identity(tr, g1, t1, f1, a1, s1)
    return tr, g1, t1


def _exact_div_cols(num: IntMat, s: SmithForm, context: str) -> IntMat:
    out = []
    for row in num.data:
        new = []
        for v, d in zip(row, s.diag):
            q, r = divmod(v, d)
            if r:
                raise PreconditionError(f"stage identity failed ({context}): inexact division")
            new.append(q)
        out.append(new)
    return IntMat._of_rows(out, num.rows, num.cols)


def verify_stage_identity(tr: StageTransform, g1: IntMat, t1: HermiteBasis,
                          f1: IntMat, a1: IntMat, s1: SmithForm) -> None:
    """Reconstruct the four starred blocks by exact division.

    The stage contract says the transform maps [F1; 0; A1; S1] to
    [G1; T1; 0; 0] for some integer starred blocks multiplying the S1 rows.
    Each starred block is the exact column quotient of the residual by the
    slice moduli, so the four divisions succeeding is the identity.
    """
    _exact_div_cols(matsub(t1.mat, matmul(tr.e, a1)), s1, "eliminator rows")
    _exact_div_cols(matsub(matsub(g1, f1), matmul(tr.q, t1.mat)), s1, "upper rows")
    _exact_div_cols(matadd(a1, matmul(tr.c, t1.mat)), s1, "middle rows")
    _exact_div_cols(matmul(tr.k.mat, t1.mat), s1, "modulus rows")
    for j in range(t1.dim):
        d = t1.mat[j, j]
        for i in range(g1.rows):
            if not 0 <= g1[i, j] < d:
                raise PreconditionError("stage identity failed: G1 not reduced below T1")


def stage_apply(tr: StageTransform, f2: IntMat, a2: IntMat, s2: SmithForm
                ) -> tuple[IntMat, IntMat]:
    """Push one stage's transform through the trailing columns.

    Returns ([F2 + Q*B; B], [A2 + C*B; K*B]) with B = E*A2, each reduced
    column-modulo S2.  Every product is one exact `colmod_mul`, so the
    transform blocks need no bound.
    """
    if f2.cols != s2.dim or a2.cols != s2.dim:
        raise DimensionError("trailing slice does not match its modulus")
    b = colmod_mul(tr.e, a2, s2)
    new_f = vstack(_add_mod(f2, colmod_mul(tr.q, b, s2), s2), b)
    new_a = vstack(_add_mod(a2, colmod_mul(tr.c, b, s2), s2), colmod_mul(tr.k.mat, b, s2))
    return new_f, new_a


def _add_mod(a: IntMat, b: IntMat, s: SmithForm) -> IntMat:
    return IntMat._of_rows([[(x + y) % d for x, y, d in zip(ra, rb, s.diag)]
                            for ra, rb in zip(a.data, b.data)], a.rows, a.cols)


def hermite_of_stack(a: IntMat, s: SmithForm) -> HermiteBasis:
    """Hermite basis T of L(A) + L(S), by one column-modulo elimination.

    A must be reduced column-modulo S.  L(S) holds s_k*e_k, so reducing
    column k modulo s_k is a lattice operation.  Column j starts its pivot
    row at s_j*e_j and folds into it, by extended gcds, every remaining row
    of A that is nonzero there; rows that become zero are dropped.  s_j*e_j
    is itself one of the folded rows, so no stabiliser row is needed.  The
    entries above each pivot are reduced last.  Under `invariant_checks`,
    T is compared with the Howell lift of the stack, an independent route.
    """
    require_colreduced(a, s, "stack block")
    m = s.dim
    rows = [r for r in a.data if any(r)]
    t_rows: list[list[int]] = []
    for j, sj in enumerate(s.diag):
        # rows hold columns j.. only; everything before them is zero
        mods = s.diag[j:]
        p = [sj] + [0] * (m - j - 1)
        left = []
        for r in rows:
            p0, r0 = p[0], r[0]
            if r0 % p0:
                g, x, y = ext_gcd(p0, r0)
                u, v = p0 // g, r0 // g
                p, r = ([(x * c + y * d) % sk for c, d, sk in zip(p, r, mods)],
                        [(u * d - v * c) % sk for c, d, sk in zip(p, r, mods)])
            elif r0:
                # the pivot already divides r0: only r changes
                q = r0 // p0
                r = [(d - q * c) % sk for c, d, sk in zip(p, r, mods)]
            if any(r):
                left.append(r[1:])
        rows = left
        t_rows.append([0] * j + p)
    for i, row in enumerate(t_rows):
        for k in range(i + 1, m):
            q = row[k] // t_rows[k][k]
            if q:
                row[k:] = [x - q * y for x, y in zip(row[k:], t_rows[k][k:])]
    t = HermiteBasis(IntMat._of_rows(t_rows, m, m))
    if invariant_checks_enabled():
        if t != hermite_via_howell(vstack(a, s.as_matrix()), s.largest):
            raise InternalError("column-modulo elimination disagrees with the Howell lift")
    return t


def coprime_parts(t: HermiteBasis, a: IntMat, s: SmithForm
                  ) -> tuple[IntMat, HermiteBasis]:
    """Blocks (C, K) rewriting the relations lattice of (S, A) coprimely.

    Requires t == hermite_of_stack(a, s).  [I C; 0 K] is the Hermite form of
    [I -A*T^{-1}; 0 S*T^{-1}]; the relations lattice of (K, C) equals that of
    (S, A) and the pair (K, C) is coprime.  These are the C and K blocks of
    `structured_hermite_blocks` on the full T and S, with no rows of F.
    """
    require_colreduced(a, s, "relations input")
    m = s.dim
    n = a.rows
    if t.dim != m:
        raise DimensionError("basis dimension does not match the modulus")
    if invariant_checks_enabled():
        if t != hermite_of_stack(a, s):
            raise PreconditionError("T is not the Hermite basis of the stack")
    _, _, c, k_mat = structured_hermite_blocks(IntMat.zeros(0, m), t, a, s)
    k = HermiteBasis(k_mat)
    if t.determinant() * k.determinant() != s.determinant():
        raise PreconditionError("determinant identity det(T)*det(K) == det(S) failed")
    for j in range(m):
        dj = k.mat[j, j]
        for i in range(n):
            if not 0 <= c[i, j] < dj:
                raise PreconditionError("C block not reduced below the K diagonal")
    return c, k
