"""Workload definitions shared by the input generator and run.py.

A workload fixes the shape of every dataset, the hyperparameters, which
datasets and random starts make up one round, and how the run's seed varies
the inputs. The datasets that are fitted are drawn from fixed data seeds
0..D-1, never from the run seed: whether a fit stalls is a deterministic
function of its data and start, and the share of failed fits must be the
same in every run. The run seed varies everything that cannot change a fit:
the order of terms within each document, the surface form of raw text
(case, punctuation, numbers, stop words), and the batch of pairs sent to
``conceptfit predict``.
"""

from dataclasses import dataclass

HOLDOUT_FRACTION = 0.2
# The holdout split seed is fixed too: the split decides the training set.
HOLDOUT_SEED = 0

# Settings every workload shares: the paper's hyperparameters and round make-up.
NUM_CONCEPTS = 3
SPARSITY = 2  # nonzero associations per question
TAU = 2.0
LAM = GAMMA = ETA = 0.3
STARTS = (0, 1, 2)  # joint-fit starts per dataset
SETUP_REPEATS = 5  # set-ups per fit
PREDICT_REPEATS = 5  # predict calls per fit


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # mixed into the data seeds so workloads draw different data
    num_questions: int
    num_learners: int
    num_words: int
    # answered > 0: each learner answers exactly that many questions;
    # answered == 0: a uniform ``observed_fraction`` of the cells is observed
    answered: int
    observed_fraction: float
    raw_text: bool
    datasets: int  # data seeds 0..datasets-1, the same in every run
    # grades-only fit starts per dataset; one where those fits are slow,
    # every start where they are short enough for one alone to be noisy
    baseline_starts: tuple
    pairs: int  # prediction pairs per predict call


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canonical", tag=1, num_questions=50, num_learners=100, num_words=60,
            answered=0, observed_fraction=0.5, raw_text=False,
            datasets=2, baseline_starts=(0,), pairs=2000,
        ),
        Workload(
            name="sparse-grades", tag=2, num_questions=20, num_learners=240, num_words=15,
            answered=2, observed_fraction=0.0, raw_text=False,
            datasets=3, baseline_starts=(0, 1, 2), pairs=3000,
        ),
        Workload(
            name="text-heavy", tag=3, num_questions=40, num_learners=15, num_words=300,
            answered=0, observed_fraction=1.0, raw_text=True,
            datasets=3, baseline_starts=(0, 1, 2), pairs=1500,
        ),
    )
}


def data_seed(workload, dataset):
    """Seed of one fitted dataset; independent of the run seed by design."""
    return [workload.tag, dataset]


def surface_seed(workload, dataset, run_seed):
    """Seed of everything the run seed may vary without changing a fit."""
    return [workload.tag, dataset, 1_000_003, run_seed]
