"""Exception hierarchy.

Errors that carry a counterexample expose it as the ``witness`` attribute.
"""


class MedianVotingError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPosetError(MedianVotingError):
    """The cover input has a cycle, a duplicate, or a redundant edge."""


class NotBoundedError(MedianVotingError):
    """No global minimum or no global maximum."""


class NotALatticeError(MedianVotingError):
    """Some pair of elements lacks a least upper bound or a greatest lower bound."""


class NotDistributiveError(MedianVotingError):
    """Meet does not distribute over join; the witness is a failing triple."""


class InvalidSizeError(MedianVotingError):
    pass


class TooLargeError(MedianVotingError):
    """A construction or search would exceed the configured cap."""


class CarrierMismatchError(MedianVotingError):
    """A preorder or profile does not live on the given lattice's carrier."""


class NotHypercubeError(MedianVotingError):
    """The lattice is not a Boolean hypercube of item subsets."""


class BallotOutOfSpaceError(MedianVotingError):
    pass


class ArityMismatchError(MedianVotingError):
    pass


class CornerNotInBallotSpaceError(MedianVotingError):
    """A corner profile needs bottom/top ballots some voter may not cast."""


class NotRepresentableError(MedianVotingError):
    """A rule's canonical median tree or committee does not replay its table."""


class NotAChainError(MedianVotingError):
    pass


class NotEnoughAtomsError(MedianVotingError):
    pass


class NoSuitableSublatticeError(MedianVotingError):
    pass


class FormatError(MedianVotingError):
    """A lattice/rule/preorder file does not match its expected shape."""
