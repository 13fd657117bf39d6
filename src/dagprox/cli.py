"""Command-line driver: benchmark study, model fitting, single prox evaluations.

Exit codes: 0 on success; 1 when a solve fails on valid input
(:class:`~dagprox.errors.NonFiniteIterate`,
:class:`~dagprox.errors.NoConvergence`); 2 for every other error, all of
which are input validation (bad flags, unreadable or malformed files,
inconsistent dimensions).  Each input is checked once, by the library
object that takes it; a command checks only what spans its flags, such as
exactly one of ``--b`` and ``--b-file``.  The one error boundary,
:class:`_Command`, maps an error's type to its exit code.
"""

from __future__ import annotations

from pathlib import Path

import click
import numpy as np

from . import bench as bench_mod
from .errors import DagproxError, NoConvergence, NonFiniteIterate
from .graph import (
    ancestor_groups,
    read_edge_list,
    read_group_file,
)
from .kernels import ProxInstance
from .learn import (
    LeastSquaresLoss,
    LogisticLoss,
    OuterOptions,
    fit as learn_fit,
    lambda_max,
    load_design_matrix,
    load_response,
    save_model,
)
from .solvers import SOLVER_NAMES, SolveOptions, solve_prox

_SOLVER_LIST = ", ".join(SOLVER_NAMES)


class _Command(click.Command):
    """A subcommand whose errors end in an exit code chosen by their type."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (NonFiniteIterate, NoConvergence) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)
        except (DagproxError, ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


def _load_groups(graph_path, groups_path, d_hint=None):
    """Resolve the group system from either a graph file or a group file."""
    if (graph_path is None) == (groups_path is None):
        raise click.UsageError("exactly one of --graph or --groups is required")
    if graph_path is not None:
        dag = read_edge_list(graph_path)
        return ancestor_groups(dag), dag
    return read_group_file(groups_path, d=d_hint), None


def _solve_options(rho, alpha, tol, max_iter, trace_every=0) -> SolveOptions:
    return SolveOptions(
        rho=rho,
        alpha=alpha,
        max_iter=max_iter,
        tol_opt=tol,
        tol_primal=tol,
        tol_dual=tol,
        trace_every=trace_every,
    )


def _write_column(values, path) -> None:
    text = "\n".join(f"{v:.17g}" for v in values) + "\n"
    if path is None:
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text, encoding="utf-8")


@click.group(cls=_Group)
def main():
    """Latent overlapping group lasso over DAG hierarchies."""


@main.command("prox-bench")
@click.option("--topology", required=True,
              type=click.Choice(["two_layer", "binary_tree", "root_two_paths", "random_dag"]))
@click.option("--nodes", type=int, default=None, help="Node count (two_layer, root_two_paths, random_dag).")
@click.option("--depth", type=int, default=None, help="Levels of the binary tree.")
@click.option("--edge-prob", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--reps", type=int, default=10, show_default=True)
@click.option("--lambda", "lam", type=float, default=0.5, show_default=True)
@click.option("--solvers", default=",".join(SOLVER_NAMES), show_default=True,
              help=f"Comma list from {{{_SOLVER_LIST}}}.")
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--alpha", type=float, default=None, help="Dual step (default rho/2).")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default="bench_out", show_default=True)
@click.option("--trace-every", type=int, default=1, show_default=True)
def cmd_prox_bench(topology, nodes, depth, edge_prob, seed, reps, lam, solvers,
                   rho, alpha, tol, max_iter, out_dir, trace_every):
    """Replication study: seeded inputs, every solver, traces plus a summary CSV."""
    spec = bench_mod.BenchmarkSpec(
        topology=topology, nodes=nodes, depth=depth, edge_prob=edge_prob,
        seed=seed, reps=reps, lam=lam,
        solvers=tuple(s.strip() for s in solvers.split(",") if s.strip()),
        options=_solve_options(rho, alpha, tol, max_iter, trace_every),
    )
    run = bench_mod.run_benchmark(spec, out_dir=out_dir)
    rows = bench_mod.summary_rows(run)
    summary_path = Path(out_dir) / "summary.csv"
    bench_mod.write_summary_csv(rows, summary_path)
    click.echo(f"wrote {summary_path} ({len(rows)} solver rows, {reps} replications)")


@main.command("prox")
@click.option("--graph", "graph_path", type=click.Path(), default=None,
              help="Edge-list file; ancestor groups are built from it.")
@click.option("--groups", "groups_path", type=click.Path(), default=None,
              help="Group file (one 'w: i1 i2 ...' line per group).")
@click.option("--b-file", type=click.Path(), default=None, help="Input vector, one value per line.")
@click.option("--b", "b_inline", default=None, help="Inline comma-separated input vector.")
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--solver", default="sharing", type=click.Choice(SOLVER_NAMES), show_default=True)
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--alpha", type=float, default=None)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write beta here instead of stdout.")
@click.option("--latent-out", type=click.Path(), default=None,
              help="Also write the latent decomposition (one 'group,coordinate,value' "
                   "CSV row per nonzero latent entry).")
def cmd_prox(graph_path, groups_path, b_file, b_inline, lam, solver,
             rho, alpha, tol, max_iter, out_path, latent_out):
    """Evaluate the penalty prox at one input; beta goes to stdout or --out."""
    if (b_file is None) == (b_inline is None):
        raise click.UsageError("exactly one of --b-file or --b is required")
    if b_file is not None:
        b = load_response(b_file)
    else:
        b = np.array([float(t) for t in b_inline.split(",")])
    group_set, _ = _load_groups(graph_path, groups_path, d_hint=b.size)
    opts = _solve_options(rho, alpha, tol, max_iter)
    inst = ProxInstance(b=b, lam=lam, group_set=group_set)

    uncovered = group_set.uncovered()
    if uncovered.size and np.any(b[uncovered] != 0.0):
        click.echo(
            f"warning: input is nonzero on {np.count_nonzero(b[uncovered] != 0.0)} "
            "coordinate(s) outside the group cover; those stay zero in beta",
            err=True,
        )

    res = solve_prox(inst, solver, opts)
    _write_column(res.beta, out_path)
    if latent_out is not None:
        nz = np.flatnonzero(res.x)  # one row per nonzero stacked entry
        group_of = np.repeat(np.arange(group_set.num_groups), group_set.sizes)
        rows = np.column_stack((group_of[nz], group_set.stacked_coords[nz], res.x[nz]))
        np.savetxt(latent_out, rows, fmt=("%d", "%d", "%.17g"), delimiter=",",
                   header="group,coordinate,value", comments="")
    if not res.converged:
        click.echo(f"warning: {solver} hit max_iter={max_iter}", err=True)


@main.command("fit")
@click.option("--loss", "loss_name", required=True,
              type=click.Choice(["least-squares", "logistic"]))
@click.option("--design", required=True, type=click.Path(),
              help="Headerless CSV design matrix, one sample per row.")
@click.option("--response", required=True, type=click.Path(),
              help="One-column response; logistic labels must be -1/+1.")
@click.option("--graph", "graph_path", type=click.Path(), default=None)
@click.option("--groups", "groups_path", type=click.Path(), default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--lambda-frac", type=float, default=None,
              help="Penalty as a fraction of lambda_max (alternative to --lambda).")
@click.option("--accelerated", is_flag=True, default=False)
@click.option("--tol", type=float, default=1e-6, show_default=True, help="Outer tolerance.")
@click.option("--max-iter", type=int, default=500, show_default=True, help="Outer iteration cap.")
@click.option("--out", "out_path", type=click.Path(), default="model.txt", show_default=True)
def cmd_fit(loss_name, design, response, graph_path, groups_path, lam, lambda_frac,
            accelerated, tol, max_iter, out_path):
    """Fit a smooth loss with the LOG penalty; writes a plain-text model file."""
    if (lam is None) == (lambda_frac is None):
        raise click.UsageError("exactly one of --lambda or --lambda-frac is required")
    loss_type = LogisticLoss if loss_name == "logistic" else LeastSquaresLoss
    loss = loss_type(load_design_matrix(design), load_response(response))
    group_set, dag = _load_groups(graph_path, groups_path, d_hint=loss.dim)
    if group_set.d != loss.dim:
        raise click.UsageError(
            f"group system has d={group_set.d} but the design matrix has {loss.dim} columns"
        )
    outer = OuterOptions(max_iter=max_iter, tol=tol)
    hierarchy = dag if dag is not None else group_set
    if lam is None:
        lam = lambda_frac * lambda_max(loss, hierarchy)
    result = learn_fit(loss, hierarchy, lam, outer=outer, accelerated=accelerated)

    save_model(out_path, result.beta, result.lam, loss_name, group_set)
    violations = result.hierarchy.num_violations if result.hierarchy is not None else "n/a"
    click.echo(
        f"objective={result.objective:.12g} support={result.support.size} "
        f"strong_violations={violations} outer_iters={result.outer_iterations} "
        f"inner_iters={result.inner_iters} model={out_path}"
    )
    if result.status == "max_iter":
        click.echo(f"warning: fit hit max_iter={max_iter}", err=True)


if __name__ == "__main__":
    main()
