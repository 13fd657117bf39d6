"""Independent oracles used by the tests.

These deliberately avoid the library's implementation paths: dense
matrices are built directly from the group lists, reachability comes from
boolean matrix squaring, and penalties are evaluated by direct summation
or brute-force search.

The textbook BCD, PGM and sharing loops, the KKT residual and the
warm-started and stepwise-certified fits are the exception: they call the
library's operator, block soft-threshold, trace recorder, sharing solver,
closed-form nested prox and penalty evaluator, because they pin the solver,
certificate and learner loops bit for bit or to rounding.  They keep each
loop in its plainest form, so that a loop that skips repeated work must
still reproduce every value of it.
"""

import math
from collections import deque
from dataclasses import replace

import numpy as np

from dagprox import learn
from dagprox.diagnostics import TraceRecorder, objective_and_proxgrad
from dagprox.graph import build_index_map
from dagprox.kernels import (
    LatentPenaltyEvaluator,
    ProxInstance,
    blockwise_soft_threshold,
    nested_prox,
    operator_norm_sq,
    penalty_value,
)
from dagprox.solvers import (
    SolveOptions,
    SolverState,
    _check_finite,
    _result,
    prox_log_admm_sharing,
)


def dense_m(group_set) -> np.ndarray:
    """Materialize the scatter/sum operator column by column from the groups."""
    m = np.zeros((group_set.d, group_set.n))
    col = 0
    for g in group_set.groups:
        for coord in g:
            m[coord, col] = 1.0
            col += 1
    return m


def closure_sets(num_nodes, edges) -> list[set[int]]:
    """Reflexive ancestor sets via repeated squaring of adjacency."""
    adj = np.eye(num_nodes, dtype=bool)
    for u, v in edges:
        adj[v, u] = True  # child reaches parent
    reach = adj.copy()
    for _ in range(int(np.ceil(np.log2(max(num_nodes, 2)))) + 1):
        reach = reach | (reach @ reach)
    return [set(np.flatnonzero(reach[i]).tolist()) for i in range(num_nodes)]


def kahn_fifo_order(num_nodes, edges) -> tuple[int, ...]:
    """Kahn's algorithm over successor lists, with a FIFO queue seeded by the sources in index order.

    A node on a cycle, or below one, never enters the queue, so the order
    is short exactly when the graph has a cycle.
    """
    succ = [[] for _ in range(num_nodes)]
    indegree = [0] * num_nodes
    for u, v in edges:
        succ[u].append(v)
        indegree[v] += 1
    queue = deque(i for i in range(num_nodes) if indegree[i] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    return tuple(order)


def edge_scan_parents(num_nodes, edges) -> list[tuple[int, ...]]:
    """Every node's parents, in edge order, by one scan of the edge list per node."""
    return [tuple(u for u, v in edges if v == i) for i in range(num_nodes)]


def textbook_hierarchy(dag, beta, threshold, mode):
    """``(nonzero_nodes, [(child, parents), ...])`` by a scan over each node's coordinates."""
    nonzero = [
        i for i in range(dag.num_nodes)
        if max(abs(float(beta[j])) for j in dag.node_coords(i)) > threshold
    ]
    violations = []
    for i in nonzero:
        zero = tuple(p for p in dag.parents(i) if p not in nonzero)
        if mode == "strong":
            violations += [(i, (p,)) for p in zero]
        elif zero and len(zero) == len(dag.parents(i)):
            violations.append((i, zero))
    return tuple(nonzero), violations


def brute_force_two_group_log_penalty(beta, weights, step=1e-5, span=2.0):
    """Grid search over the single free split of groups {0} and {0, 1}.

    The decomposition is nu1 = (a, 0), nu2 = (beta0 - a, beta1); the
    penalty is w1 |a| + w2 ||(beta0 - a, beta1)||.
    """
    a = np.arange(-span, span + step / 2, step)
    vals = weights[0] * np.abs(a) + weights[1] * np.hypot(beta[0] - a, beta[1])
    return float(vals.min())


def central_difference_gradient(fn, x, h=1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def geometric_trace(f_star, c, ratio, num, trace_cls, record_cls):
    """A synthetic trace with exact geometric objective decay."""
    trace = trace_cls()
    for k in range(num):
        trace.append(
            record_cls(
                iter=k,
                wall_s=float(k),
                objective=f_star + c * ratio**k,
                primal_res=0.0,
                dual_res=0.0,
                proxgrad_norm=0.0,
            )
        )
    return trace


def textbook_group_soft_threshold(v, t):
    """Prox of ``t ||.||_2``: ``np.linalg.norm``, then zero or shrink."""
    nv = np.linalg.norm(v)
    return np.zeros_like(v) if nv <= t else (1.0 - t / nv) * v


def textbook_objective_and_proxgrad(x, inst):
    """Objective and unit-step prox-gradient norm, each from its own formula."""
    op, gs = inst.operator, inst.group_set
    r = op.apply(x) - inst.b
    obj = penalty_value(x, gs, inst.lam) + 0.5 * float(r @ r)
    step_point = blockwise_soft_threshold(x - op.adjoint_apply(r), inst.lam * gs.weights, gs)
    return obj, float(np.linalg.norm(x - step_point))


def textbook_bcd(inst, max_iter, tol, randomized=False, seed=0):
    """Gauss-Seidel sweeps that take each group out of ``beta = M x`` and put it back.

    Returns ``(iterations, x, [(objective, proxgrad_norm) per sweep])``.
    """
    gs = inst.group_set
    x, beta = np.zeros(inst.n), np.zeros(inst.d)
    if textbook_objective_and_proxgrad(x, inst)[1] <= tol:
        return 0, x, []
    rng = np.random.default_rng(seed)
    records = []
    for k in range(1, max_iter + 1):
        order = rng.permutation(gs.num_groups) if randomized else range(gs.num_groups)
        for j in order:
            lo, hi = gs.index_ranges[j]
            g = gs.groups[j]
            beta[g] -= x[lo:hi]
            seg = textbook_group_soft_threshold(inst.b[g] - beta[g], inst.lam * gs.weights[j])
            x[lo:hi] = seg
            beta[g] += seg
        beta = inst.operator.apply(x)
        records.append(textbook_objective_and_proxgrad(x, inst))
        if records[-1][1] <= tol:
            break
    return k, x, records


def textbook_pgm(inst, max_iter, tol, accelerated=False):
    """ISTA / FISTA that evaluates the gradient and the stopping test separately.

    Returns ``(iterations, x, [(objective, proxgrad_norm) per iteration])``.
    """
    op, gs = inst.operator, inst.group_set
    step = 1.0 / operator_norm_sq(op)
    thresholds = step * inst.lam * gs.weights
    x = np.zeros(inst.n)
    if textbook_objective_and_proxgrad(x, inst)[1] <= tol:
        return 0, x, []
    point, t = x.copy(), 1.0
    records = []
    for k in range(1, max_iter + 1):
        grad = op.adjoint_apply(op.apply(point) - inst.b)
        x_new = blockwise_soft_threshold(point - step * grad, thresholds, gs)
        if accelerated:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t**2))
            point = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        else:
            point = x_new
        x = x_new
        records.append(textbook_objective_and_proxgrad(x, inst))
        if records[-1][1] <= tol:
            break
    return k, x, records


def textbook_sharing(inst, opts=None, state=None):
    """The sharing ADMM with a dense step on every iteration.

    Each step soft-thresholds every group of ``x1 + M^T (g - w)`` and
    forms ``M x1`` from the whole stacked vector; the loop is otherwise
    the solver's (same stopping rule, trace and warm start), so the two
    must agree value for value.
    """
    opts = opts or SolveOptions()
    alpha = opts.require_admm_steps()
    rho = opts.rho
    gs = inst.group_set
    op = inst.operator
    cover = op.cover_counts.astype(float)
    c_safe = np.maximum(cover, 1.0)
    thresholds = inst.lam * gs.weights / rho
    b = inst.b
    recorder = TraceRecorder(opts.trace_every)

    def values():
        obj, pg, _ = objective_and_proxgrad(x1, inst)
        return obj, primal, dual_res, pg

    g = np.zeros(inst.d)
    if state is None:
        x1, mx1, w = np.zeros(inst.n), np.zeros(inst.d), np.zeros(inst.d)
    else:
        x1, mx1 = state.x2, op.apply(state.x2)
        w = op.apply(state.y) / (rho * c_safe)
    dual_step = alpha / rho
    consensus_scale = rho + c_safe
    status = "max_iter"
    k = 0
    for k in range(1, opts.max_iter + 1):
        x1_prev, mx1_prev, g_prev = x1, mx1, g
        x1 = blockwise_soft_threshold(x1 + op.adjoint_apply(g - w), thresholds, gs)
        mx1 = op.apply(x1)
        g = (b - mx1 + rho * w) / consensus_scale
        w = w - dual_step * g
        primal = math.sqrt(cover @ (g * g))
        dual_res = 0.0
        if opts.trace_every or primal <= opts.tol_primal:
            dg = g - g_prev
            dx1 = x1 - x1_prev
            dual_sq = dx1 @ dx1 + 2.0 * ((mx1 - mx1_prev) @ dg) + cover @ (dg * dg)
            dual_res = rho * math.sqrt(max(dual_sq, 0.0))
        if not math.isfinite(primal + dual_res):
            _check_finite(primal + dual_res, k, "ADMM iterate")
        recorder.record(k, values)
        if primal <= opts.tol_primal and dual_res <= opts.tol_dual:
            status = "converged"
            break
    recorder.record(k, values, final=True)
    final = SolverState(x1=x1, x2=x1 + op.adjoint_apply(g), y=op.adjoint_apply(rho * w))
    return _result(inst, x1, status, k, recorder.trace, state=final, beta=mx1)


def prox_kkt_residuals(b, lam, group_set, theta, x) -> dict:
    """Worst violation of each optimality condition of the LOG prox, by direct summation.

    ``x`` is optimal for ``lam sum_g w_g ||x_g|| + 0.5 ||M x - b||^2`` and
    ``theta`` is the projection of ``b`` onto ``{||theta_g|| <= lam w_g}``
    exactly when ``theta = b - M x`` (``decomposition``), every
    ``||theta_g|| <= lam w_g`` (``feasibility``) and every nonzero latent
    has ``theta_g = lam w_g x_g / ||x_g||`` (``subgradient``: the constraint
    is active and ``x_g`` is aligned with ``theta_g``).
    """
    beta = np.zeros(group_set.d)
    feasibility = subgradient = 0.0
    col = 0
    for g, w in zip(group_set.groups, group_set.weights):
        xg = x[col : col + len(g)]
        col += len(g)
        beta[g] += xg  # a group's coordinates are distinct
        tg = theta[g]
        feasibility = max(feasibility, float(np.linalg.norm(tg)) - lam * w)
        nx = np.linalg.norm(xg)
        if nx > 0:
            subgradient = max(subgradient, float(np.linalg.norm(tg - lam * w * xg / nx)))
    return {
        "decomposition": float(np.max(np.abs(b - theta - beta), initial=0.0)),
        "feasibility": feasibility,
        "subgradient": subgradient,
    }


def textbook_kkt_residual(x1, x2, y, inst, rho=1.0):
    """``kkt_residual`` with one Python pass over the groups for ``stationarity1``."""
    op, gs = inst.operator, inst.group_set
    stat2 = float(np.linalg.norm(op.adjoint_apply(op.apply(x2) - inst.b) + rho * (x2 - x1) - y))
    dual_blocks = y + rho * (x1 - x2)
    per_group = np.zeros(gs.num_groups)
    for j, (lo, hi) in enumerate(gs.index_ranges):
        t = inst.lam * gs.weights[j]
        block = x1[lo:hi]
        dual = dual_blocks[lo:hi]
        norm_block = np.linalg.norm(block)
        if norm_block > 0:
            per_group[j] = np.linalg.norm(dual + t * block / norm_block)
        else:
            per_group[j] = max(0.0, np.linalg.norm(dual) - t)
    return stat2, float(np.linalg.norm(per_group)), float(np.linalg.norm(x1 - x2))


def textbook_latent_matrix(x, group_set):
    """The d-by-|G| latent matrix, filled one group's column at a time."""
    m = np.zeros((group_set.d, group_set.num_groups))
    for j, ((lo, hi), g) in enumerate(zip(group_set.index_ranges, group_set.groups)):
        m[g, j] = x[lo:hi]
    return m


def textbook_restrict(group_set, keep):
    """The groups ``keep`` of ``group_set``, in that order, rebuilt one group at a time."""
    return build_index_map(
        [group_set.groups[j] for j in keep], weights=group_set.weights[keep], d=group_set.d
    )


def warm_started_fit(loss, group_set, lam, outer, inner_max_iter=20_000):
    """Plain proximal gradient whose sharing prox resumes from the previous step's state.

    The schedule, step and stopping rule are ``learn.fit``'s; there is no
    trace and no certified objective.  Returns ``(beta, outer_iterations,
    inner_iterations)``.
    """
    step = 1.0 / loss.lipschitz_hint()
    inner = SolveOptions(max_iter=inner_max_iter)
    beta = np.zeros(group_set.d)
    state, inner_total = None, 0
    for k in range(1, outer.max_iter + 1):
        target = beta - step * loss.gradient(beta)
        tol_k = max(learn.INNER_TOL_FLOOR, learn.INNER_TOL_COEFF / k**2)
        res = prox_log_admm_sharing(
            ProxInstance(b=target, lam=step * lam, group_set=group_set),
            replace(inner, tol_primal=tol_k, tol_dual=tol_k),
            state=state,
        )
        state, inner_total = res.state, inner_total + res.iterations
        measure = np.linalg.norm(beta - res.beta) / step
        beta = res.beta
        if measure <= outer.tol:
            break
    return beta, k, inner_total


def stepwise_certified_fit(loss, group_set, lam, outer, accelerated=False):
    """Proximal gradient on nested groups whose every prox is one certifying sharing iteration.

    Each step starts the sharing ADMM from :func:`nested_prox`'s exact pair,
    ``x1 = x2 = x`` and ``y = -M^T theta``, at ``learn.fit``'s tolerance
    schedule, and steps to the β it returns.  The step, momentum restart and
    stopping rule are ``learn.fit``'s; there is no trace.  Returns ``(beta,
    status, outer_iterations, inner_iterations, objective)``, the objective
    taking Ω from the evaluator as ``fit`` does.
    """
    step = 1.0 / loss.lipschitz_hint()
    beta = np.zeros(group_set.d)
    point, t = beta.copy(), 1.0
    status, inner_total = "max_iter", 0
    for k in range(1, outer.max_iter + 1):
        inst = ProxInstance(b=point - step * loss.gradient(point), lam=step * lam, group_set=group_set)
        theta, _, x = nested_prox(inst)
        tol_k = max(learn.INNER_TOL_FLOOR, learn.INNER_TOL_COEFF / k**2)
        res = prox_log_admm_sharing(
            inst,
            SolveOptions(max_iter=learn.INNER_MAX_ITER, tol_primal=tol_k, tol_dual=tol_k),
            state=SolverState(x1=x, x2=x, y=-inst.operator.adjoint_apply(theta)),
        )
        inner_total += res.iterations
        measure = np.linalg.norm(point - res.beta) / step
        if accelerated:
            if np.dot(point - res.beta, res.beta - beta) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t**2))
            point = res.beta + ((t - 1.0) / t_next) * (res.beta - beta)
            t = t_next
        else:
            point = res.beta
        beta = res.beta
        if measure <= outer.tol:
            status = "converged"
            break
    penalty = LatentPenaltyEvaluator(group_set).value(beta, lam, latent_hint=res.x)
    return beta, status, k, inner_total, loss.value(beta) + penalty


def latent_penalty_bracket(beta, group_set, rel_gap=1e-10, max_iter=200_000):
    """``(lower, upper)`` around ``Omega(beta)`` from a textbook latent ADMM.

    The loop splits ``min sum_g w_g ||x_g||`` subject to ``M x = beta``
    into the group soft-threshold and the projection onto ``{M x = beta}``
    through the pseudo-inverse of the dense ``M``, with ``rho = 1`` and the
    scaled dual ``u``.  ``upper`` is the penalty of the projected iterate, a
    feasible decomposition.  ``-pinv(M^T) u`` is a dual point; divided by
    its largest ``||theta_g|| / w_g`` it satisfies every ``||theta_g|| <= w_g``,
    so by weak duality ``lower = <theta, beta>`` bounds ``Omega`` below.  Both
    are checked by direct summation over the group lists.  The loop stops
    once ``upper - lower <= rel_gap * max(1, upper)``.
    """
    m = dense_m(group_set)
    pinv = np.linalg.pinv(m)
    pairs = list(zip(group_set.groups, group_set.weights))
    ranges = []
    col = 0
    for g, _ in pairs:
        ranges.append((col, col + len(g)))
        col += len(g)

    def penalty(x):
        return sum(w * np.linalg.norm(x[lo:hi]) for (_, w), (lo, hi) in zip(pairs, ranges))

    x2 = pinv @ beta
    u = np.zeros(group_set.n)
    for k in range(1, max_iter + 1):
        x1 = np.concatenate([
            textbook_group_soft_threshold(x2[lo:hi] - u[lo:hi], w)
            for (_, w), (lo, hi) in zip(pairs, ranges)
        ])
        v = x1 + u
        x2 = v + pinv @ (beta - m @ v)
        u = v - x2
        if k % 25:
            continue
        theta = -(pinv.T @ u)
        worst = max(np.linalg.norm(theta[g]) / w for g, w in pairs)
        lower = float(theta @ beta) / worst if worst > 0 else 0.0
        upper = penalty(x2)
        if upper - lower <= rel_gap * max(1.0, upper):
            return lower, upper
    raise AssertionError(f"no {rel_gap} bracket in {max_iter} iterations: {lower}, {upper}")
