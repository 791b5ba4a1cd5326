"""Memory-augmented classification of in-place gestures from sparse skeleton
streams: dataset windowing, a momentum-coupled encoder pair, an external FIFO
feature memory with similarity addressing, contrastive training, and a
streaming inference service."""

from .dataset import (Recording, SampleSet, ShortTermSample, SplitSpec,
                      SynthesisConfig, load_recordings, preprocess, split_windows,
                      synthesize_gestures, window_dataset, write_frames)
from .encoder import (EncoderConfig, SkeletonGraph, classify, init_encoders,
                      momentum_update, skeleton_graph)
from .errors import (CheckpointError, ConfigError, ContractError,
                     DataIntegrityError, EmptyMemoryError, NonFiniteError,
                     ParseError, StructuralError, ToolkitError)
from .inference import (FrozenModel, StreamSession, latency_estimate, predict,
                        predict_batch, tcp_server, window_features)
from .memory import MemoryQueue, address, address_batch, recall, recall_for_query
from .evaluation import ConfusionMatrix, evaluate, export_addressing, run_grid
from .training import (TrainConfig, TrainResult, TrainState, init_state,
                       load_checkpoint, save_checkpoint, train, train_step)

__version__ = "0.1.0"
