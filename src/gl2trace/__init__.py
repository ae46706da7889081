"""gl2trace: exact spherical Hecke algebra, orbital integral, and
trace-comparison toolkit for GL(2) over p-adic fields at desk scale."""

from .basicfn import RepSpec, local_l_factor, truncated_basic_identity
from .hecke import (HeckeElement, LocalField, SatakeParameter, convolve,
                    inverse_satake, satake_transform, spherical_trace)
from .orbital import SplitClass, orbital_zeta, rational_reconstruct, split_orbital
from .rings import LaurentQ, QiNumber

__version__ = "0.1.0"
