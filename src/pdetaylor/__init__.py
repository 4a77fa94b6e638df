"""Arbitrary-order time derivatives of PDE solutions via series-of-jets arithmetic."""

from . import bench, driver, jets, problems, series
from .bench import *
from .driver import *
from .jets import *
from .problems import *
from .series import *

__version__ = "0.1.0"

__all__ = []
__all__ += bench.__all__
__all__ += driver.__all__
__all__ += jets.__all__
__all__ += problems.__all__
__all__ += series.__all__
