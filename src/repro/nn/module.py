"""Module/parameter abstractions for the numpy autograd engine.

Mirrors the familiar ``torch.nn.Module`` contract at the scale this
reproduction needs: recursive parameter discovery, train/eval modes,
state dicts for (de)serialisation, and parameter freezing — which is the
mechanism GNNVault uses to keep the public backbone fixed while the
private rectifier trains.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable model weight."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation,
    serialisation and mode switching.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # Attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its submodules."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every submodule, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar weights (the paper's θ metric)."""
        return sum(param.size for param in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradient control
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> "Module":
        """Disable gradient tracking on every parameter.

        GNNVault trains the rectifier with the backbone frozen
        (paper §IV-D); this is the switch that implements it.
        """
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        """Re-enable gradient tracking on every parameter."""
        for param in self.parameters():
            param.requires_grad = True
        return self

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array copy of every parameter."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def prepare_input(self, x):
        """This model's form of a constant input matrix ``x`` for training.

        A dense :class:`Tensor` by default. A model whose first layer takes
        a sparse input (``Dropout``, ``Linear``, ``GCNConv``) overrides this
        to return CSR, so its first-layer work scales with the stored
        entries rather than with ``n × d``.
        """
        return Tensor(x)


class ModuleList(Module):
    """Hold an ordered list of submodules, registered for discovery."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
