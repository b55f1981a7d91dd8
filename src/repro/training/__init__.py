"""Fine-tuning: optimizers, schedules, losses, trainer."""

from repro.training.losses import cross_entropy, mse, span_loss
from repro.training.optim import SGD, Adam, Optimizer
from repro.training.schedule import ConstantSchedule, LinearWarmupSchedule
from repro.training.trainer import Trainer, TrainingLog, evaluate

__all__ = [
    "Adam",
    "ConstantSchedule",
    "LinearWarmupSchedule",
    "Optimizer",
    "SGD",
    "Trainer",
    "TrainingLog",
    "cross_entropy",
    "evaluate",
    "mse",
    "span_loss",
]
