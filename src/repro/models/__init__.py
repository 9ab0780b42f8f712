"""The 15-model zoo of the paper's Table 1, scaled to numpy-on-CPU."""

from repro.models.dave import (build_dave_dropout, build_dave_norminit,
                               build_dave_orig)
from repro.models.lenet import (build_lenet1, build_lenet1_variant,
                                build_lenet4, build_lenet5)
from repro.models.malware import build_drebin_model, build_mlp, build_pdf_model
from repro.models.registry import (MODEL_ZOO, TRIOS, ModelSpec, get_model,
                                   get_trio, model_accuracy, train_model,
                                   zoo_names)
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg16, build_vgg19

__all__ = [
    "build_dave_dropout", "build_dave_norminit", "build_dave_orig",
    "build_lenet1", "build_lenet1_variant", "build_lenet4", "build_lenet5",
    "build_drebin_model", "build_mlp", "build_pdf_model",
    "MODEL_ZOO", "TRIOS", "ModelSpec", "get_model", "get_trio",
    "model_accuracy", "train_model", "zoo_names",
    "build_resnet", "build_vgg16", "build_vgg19",
]
