"""Multi-head self-attention, matching the BERT layer layout (Figure 1a).

The attention component contains exactly the four FC layers the paper's
Table I counts: Query, Key, Value projections and the self-attention Output
projection, each ``hidden x hidden``.

Given a :class:`TokenLayout`, the same layer runs on the packed rows of the
real tokens only.  That is the serving forward, which returns only the
pooled [CLS] vector (``BertModel.forward(..., pooled_only=True)``).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


class TokenLayout:
    """The cells of a padded ``(batch, width)`` token grid that a forward
    computes.

    When some cell is padding, hidden states are packed ``(rows, hidden)``:
    in row-major order, every cell whose attention mask is not 0, plus each
    row's [CLS] cell (column 0) whatever its mask.  Q, K and V go onto the
    grid only for the attention matmuls and the softmax, where a padding
    cell holds a copy of the last computed cell before it in its row.  A
    masked key gets exactly zero weight (``exp(-1e9 - max)`` is 0.0) and a
    padding query's output is never read, so no copy reaches a computed
    row.  When no cell is padding, the states stay the ``(batch, width,
    hidden)`` grid and nothing is gathered; :meth:`grid` is that layout,
    the dense forward's.

    :meth:`cls_queries` is the last layer's layout: only the [CLS] rows are
    queries, and the layer returns them, ``(batch, hidden)``.
    """

    def __init__(self, shape: tuple[int, ...], attention_mask: np.ndarray | None = None):
        if len(shape) != 2:
            raise ShapeError(f"input_ids must be (batch, seq), got {tuple(shape)}")
        self.shape = batch, width = tuple(shape)
        self.cls_only = False
        self.index = self.cells = None  # no padding: the states are the grid
        self.cls = (slice(None), 0)  # where the [CLS] states are
        if attention_mask is None:
            return
        keep = np.asarray(attention_mask) != 0
        if keep.shape != self.shape:
            raise ShapeError(
                f"attention_mask shape {keep.shape} does not match batch/seq {self.shape}")
        if keep.all():
            return
        if not keep.any(axis=1).all():
            raise ShapeError("every row needs an unmasked position; a row of padding "
                             "alone has nothing to attend to")
        keep[:, 0] = True
        keep = keep.reshape(-1)
        self.index = np.flatnonzero(keep)  # the grid cell of each packed row
        self.cells = np.cumsum(keep) - 1  # the packed row each grid cell shows
        self.cls = self.cells[::width]

    @classmethod
    def grid(cls, states: Tensor) -> "TokenLayout":
        """The layout of ``(batch, seq, features)`` states: every cell
        computed and a query, nothing gathered."""
        if states.ndim != 3:
            raise ShapeError(f"expected (batch, seq, features) states, got {states.shape}")
        return cls(states.shape[:2])

    def cls_queries(self) -> "TokenLayout":
        """This layout with the [CLS] rows as the only queries."""
        last = copy.copy(self)
        last.cls_only = True
        return last

    def pack(self, grid: np.ndarray) -> np.ndarray:
        """The computed cells of a ``(batch, width)`` array, laid out as
        the hidden states are."""
        grid = np.asarray(grid)
        if grid.shape != self.shape:
            raise ShapeError(f"expected a {self.shape} array, got {grid.shape}")
        return grid if self.index is None else grid.reshape(-1)[self.index]

    def queries(self, states: Tensor) -> Tensor:
        """The query rows of ``states``."""
        return states[self.cls] if self.cls_only else states

    def to_grid(self, states: Tensor, queries: bool = False) -> Tensor:
        """``states`` on the grid, ``(batch, width, features)``; the [CLS]
        queries alone go to ``(batch, 1, features)``."""
        batch, width = self.shape
        if queries and self.cls_only:
            return states.reshape(batch, 1, states.shape[-1])
        if self.cells is None:
            return states
        return states[self.cells].reshape(batch, width, states.shape[-1])

    def from_grid(self, grid: Tensor) -> Tensor:
        """The query rows of a grid of queries, laid out as the hidden
        states are (:meth:`to_grid`'s inverse)."""
        if self.cls_only:
            return grid.reshape(grid.shape[0], grid.shape[-1])
        if self.index is None:
            return grid
        return grid.reshape(-1, grid.shape[-1])[self.index]


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` heads."""

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        dropout_rate: float = 0.0,
        rng: int | np.random.Generator | None = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ConfigError(
                f"hidden_size {hidden_size} is not divisible by num_heads {num_heads}"
            )
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.query = Linear(hidden_size, hidden_size, rng=derive_rng(rng, "query"), init_std=init_std)
        self.key = Linear(hidden_size, hidden_size, rng=derive_rng(rng, "key"), init_std=init_std)
        self.value = Linear(hidden_size, hidden_size, rng=derive_rng(rng, "value"), init_std=init_std)
        self.output = Linear(hidden_size, hidden_size, rng=derive_rng(rng, "output"), init_std=init_std)
        self.dropout = Dropout(dropout_rate, rng=derive_rng(rng, "dropout"))

    def _split_heads(self, x: Tensor) -> Tensor:
        """(batch, seq, hidden) -> (batch, heads, seq, head_dim)."""
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        """(batch, heads, seq, head_dim) -> (batch, seq, hidden)."""
        batch, _, seq, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.hidden_size)

    def forward(
        self,
        hidden: Tensor,
        attention_mask: np.ndarray | None = None,
        layout: TokenLayout | None = None,
    ) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        hidden:
            ``(batch, seq, hidden)`` input states, or their packed
            ``(rows, hidden)`` when ``layout`` packs them.
        attention_mask:
            Optional ``(batch, seq)`` array; positions with value 0 are
            padding and receive no attention.
        layout:
            The :class:`TokenLayout` of ``hidden``, by default its grid;
            the output is its query rows, laid out as ``hidden`` is.
        """
        if layout is None:
            layout = TokenLayout.grid(hidden)
        if hidden.shape[-1] != self.hidden_size:
            raise ShapeError(f"expected (batch, seq, {self.hidden_size}), got {hidden.shape}")
        q = self._split_heads(layout.to_grid(self.query(layout.queries(hidden)), queries=True))
        k = self._split_heads(layout.to_grid(self.key(hidden)))
        v = self._split_heads(layout.to_grid(self.value(hidden)))

        scores = q.matmul(k.swapaxes(-1, -2)) * (1.0 / math.sqrt(self.head_dim))
        if attention_mask is not None:
            blocked = np.asarray(attention_mask) == 0
            if blocked.shape != layout.shape:
                raise ShapeError(
                    f"attention_mask shape {blocked.shape} does not match batch/seq {layout.shape}"
                )
            if blocked.any():  # with no key masked (every lone request) there is nothing to fill
                scores = F.masked_fill(scores, blocked[:, None, None, :], -1e9)
        probs = F.softmax(scores, axis=-1)
        probs = self.dropout(probs)
        context = layout.from_grid(self._merge_heads(probs.matmul(v)))
        return self.output(context)
